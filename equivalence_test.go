package focus_test

// Equivalence sweeps of the unified pipeline: cluster qualification is
// deterministic and parallelism-invariant, and every lits pipeline is
// bit-identical (==, not approximately equal) on both sides of the
// engine's backend rule.

import (
	"testing"

	"focus"
	"focus/internal/apriori"
	"focus/internal/classgen"
)

type fgCase struct {
	name string
	f    focus.DiffFunc
	g    focus.AggFunc
}

func fgCases() []fgCase {
	return []fgCase{
		{"fa-sum", focus.AbsoluteDiff, focus.Sum},
		{"fa-max", focus.AbsoluteDiff, focus.Max},
		{"fs-sum", focus.ScaledDiff, focus.Sum},
		{"fs-max", focus.ScaledDiff, focus.Max},
	}
}

var parCases = []int{1, 4}

func classData(t *testing.T, n int, fn classgen.Function, seed int64) *focus.Dataset {
	t.Helper()
	d, err := classgen.Generate(classgen.Config{NumTuples: n, Function: fn, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func qualEqual(t *testing.T, name string, a, b focus.Qualification) {
	t.Helper()
	if a.Deviation != b.Deviation || a.Significance != b.Significance {
		t.Errorf("%s: (%v, %v%%) != (%v, %v%%)",
			name, a.Deviation, a.Significance, b.Deviation, b.Significance)
	}
	if len(a.Null) != len(b.Null) {
		t.Fatalf("%s: null sizes %d != %d", name, len(a.Null), len(b.Null))
	}
	for i := range a.Null {
		if a.Null[i] != b.Null[i] {
			t.Fatalf("%s: null[%d] %v != %v", name, i, a.Null[i], b.Null[i])
		}
	}
}

// Cluster qualification must be deterministic, parallelism-invariant, and
// consistent with the unified deviation.
func TestClusterQualification(t *testing.T) {
	d1 := classData(t, 2000, classgen.F1, 307)
	d2 := classData(t, 1800, classgen.F3, 308)
	grid, err := focus.NewGrid(classgen.Schema(), []int{classgen.AttrSalary, classgen.AttrAge}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cl := focus.Cluster(grid, 0.01)
	q1, err := focus.Qualify(cl, d1, d2, focus.AbsoluteDiff, focus.Sum,
		focus.WithReplicates(19), focus.WithSeed(11), focus.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	q4, err := focus.Qualify(cl, d1, d2, focus.AbsoluteDiff, focus.Sum,
		focus.WithReplicates(19), focus.WithSeed(11), focus.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	qualEqual(t, "cluster par1-vs-par4", q1, q4)
	m1, err := cl.Induce(d1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cl.Induce(d2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := focus.Deviation(cl, m1, m2, d1, d2, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Deviation != dev {
		t.Errorf("qualified deviation %v != Deviation %v", q1.Deviation, dev)
	}
	if q1.Significance < 0 || q1.Significance > 100 {
		t.Errorf("significance %v outside [0,100]", q1.Significance)
	}
}

// The backend contract of the lits engine: every lits pipeline — batch
// deviation, bootstrap qualification, incremental monitoring — produces
// bit-identical (==, not approximately equal) results whether the input's
// vertical index fits (bitmap counting, vertical mining, view replicates,
// the incremental window miner) or the engine takes its bounded-memory
// fallback (trie counting, levelwise mining, materialized replicates,
// levelwise window mining), across f/g and parallelism. Re-declaring the
// same transactions over a wider item universe is what moves them past a
// cap; no support changes. CI runs this sweep under -race, which also
// exercises the memoized index build from concurrent counting workers.

// indexCapItems and indexCapCopies move the facade data past the engine's
// index memory cap, which costs an index by the items its transactions
// can hold: seven copies of 2500 transactions (17500 rows, 274 words per
// item) hold some 140000 item occurrences, enough to fill a 2^18-item
// universe well past the 256 MB cap, so every scan takes the fallback.
// The same rows over their own 300 items take the index path.
const indexCapItems, indexCapCopies = 1 << 18, 7

// copies returns d's transactions k times over, sharing their storage:
// every support (a fraction) is unchanged.
func copies(d *focus.TxnDataset, k int) *focus.TxnDataset {
	var rows []focus.Transaction
	for i := 0; i < k; i++ {
		rows = append(rows, d.Txns...)
	}
	return focus.FromTransactions(d.NumItems, rows)
}

// pairCapItems is a universe just past the incremental window miner's
// pair-table cap, so monitor windows mine levelwise through their count
// source.
const pairCapItems = 6000

// widen re-declares d's transactions over a universe of n items, sharing
// their storage.
func widen(d *focus.TxnDataset, n int) *focus.TxnDataset {
	return focus.FromTransactions(n, d.Txns)
}

// TestCounterEquivalenceDeviation mines and measures on both sides of the
// index cap end to end and requires identical models and deviations.
func TestCounterEquivalenceDeviation(t *testing.T) {
	d1, _, d3 := facadeTxnData(t)
	d1, d3 = copies(d1, indexCapCopies), copies(d3, indexCapCopies)
	const ms = 0.03
	mc := focus.Lits(ms)
	for _, fg := range fgCases() {
		for _, par := range parCases {
			devs := make([]float64, 0, 2)
			lens := make([]int, 0, 2)
			for _, items := range []int{d1.NumItems, indexCapItems} {
				a, b := widen(d1, items), widen(d3, items)
				m1, err := mc.Induce(a, par)
				if err != nil {
					t.Fatal(err)
				}
				m3, err := mc.Induce(b, par)
				if err != nil {
					t.Fatal(err)
				}
				dev, err := focus.Deviation(mc, m1, m3, a, b, fg.f, fg.g, focus.WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				if items == indexCapItems && (a.HasMemo() || b.HasMemo()) {
					t.Fatal("the fallback built a vertical index")
				}
				devs = append(devs, dev)
				lens = append(lens, m1.Len()+m3.Len())
			}
			if lens[0] != lens[1] {
				t.Errorf("%s/par%d: index path mined %d itemsets, fallback %d", fg.name, par, lens[0], lens[1])
			}
			if devs[0] != devs[1] {
				t.Errorf("%s/par%d: index path deviation %v != fallback %v", fg.name, par, devs[0], devs[1])
			}
		}
	}
}

// TestCounterEquivalenceQualify runs the full bootstrap on both sides of
// the index cap — weighted views against materialized resamples mined
// levelwise — and requires the observed deviation, the significance and
// the whole null distribution to match exactly.
func TestCounterEquivalenceQualify(t *testing.T) {
	d1, _, d3 := facadeTxnData(t)
	d1, d3 = copies(d1, indexCapCopies), copies(d3, indexCapCopies)
	mc := focus.Lits(0.03)
	for _, fg := range fgCases() {
		for _, par := range parCases {
			var quals []focus.Qualification
			for _, items := range []int{d1.NumItems, indexCapItems} {
				a, b := widen(d1, items), widen(d3, items)
				q, err := focus.Qualify(mc, a, b, fg.f, fg.g,
					focus.WithReplicates(19), focus.WithSeed(13), focus.WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				if items == indexCapItems && (a.HasMemo() || b.HasMemo()) {
					t.Fatal("the fallback built a vertical index")
				}
				quals = append(quals, q)
			}
			qualEqual(t, "counter-"+fg.name, quals[0], quals[1])
		}
	}
}

// TestCounterEquivalenceMonitor replays one batch stream through a monitor
// whose windows mine incrementally and through one over a universe past
// the window miner's pair-table cap, whose windows mine levelwise through
// their count source (window advance, expiry, alerts, qualification). The
// reports must be identical at every step, and every emitted deviation
// must equal rebuilding the window from its raw batches.
func TestCounterEquivalenceMonitor(t *testing.T) {
	d1, d2, d3 := facadeTxnData(t)
	const ms = 0.03
	if apriori.UseWindowMiner(pairCapItems) {
		t.Fatal("the pair-cap universe still mines incrementally")
	}
	mc := focus.Lits(ms)
	wideRef := widen(d1, pairCapItems)
	refModel, err := mc.Induce(wideRef, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, fg := range fgCases() {
		for _, par := range parCases {
			// Bootstrap qualification on every emission is the expensive
			// path; sweeping it once per parallelism keeps the suite quick
			// while the threshold/alert machinery runs for every f/g.
			opts := []focus.Option{
				focus.WithWindow(2), focus.WithThreshold(0.1), focus.WithFunctions(fg.f, fg.g),
				focus.WithReplicates(19), focus.WithSeed(17), focus.WithParallelism(par),
			}
			if fg.name == "fa-sum" {
				opts = append(opts, focus.WithQualification())
			}
			narrowMon, err := focus.NewMonitor(mc, d1, opts...)
			if err != nil {
				t.Fatal(err)
			}
			wideMon, err := focus.NewMonitor(mc, wideRef, opts...)
			if err != nil {
				t.Fatal(err)
			}
			emitted := false
			var window [][]focus.Transaction
			for _, batch := range [][]focus.Transaction{
				d2.Txns[:800], d3.Txns[:800], d2.Txns[800:1600], d3.Txns[800:1600],
			} {
				narrowRep, err := narrowMon.Ingest(focus.FromTransactions(d1.NumItems, batch))
				if err != nil {
					t.Fatal(err)
				}
				wideRep, err := wideMon.Ingest(focus.FromTransactions(pairCapItems, batch))
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "counter-"+fg.name, narrowRep, wideRep)
				if window = append(window, batch); len(window) > 2 {
					window = window[1:]
				}
				if wideRep == nil {
					continue
				}
				emitted = true
				var rows []focus.Transaction
				for _, b := range window {
					rows = append(rows, b...)
				}
				winData := focus.FromTransactions(pairCapItems, rows)
				winModel, err := mc.Induce(winData, par)
				if err != nil {
					t.Fatal(err)
				}
				want, err := focus.Deviation(mc, refModel, winModel, wideRef, winData, fg.f, fg.g)
				if err != nil {
					t.Fatal(err)
				}
				if wideRep.Deviation != want {
					t.Errorf("%s/par%d: monitor deviation %v != rebuilt %v", fg.name, par, wideRep.Deviation, want)
				}
			}
			if !emitted {
				t.Fatal("monitors emitted nothing")
			}
		}
	}
}

func reportsEqual(t *testing.T, name string, a, b *focus.MonitorReport) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: emitted=%v vs %v", name, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if a.Seq != b.Seq || a.Epoch != b.Epoch || a.Batches != b.Batches ||
		a.N != b.N || a.RefN != b.RefN || a.Regions != b.Regions ||
		a.Deviation != b.Deviation || a.Alert != b.Alert {
		t.Errorf("%s: report %+v != %+v", name, a, b)
	}
	if (a.Qual == nil) != (b.Qual == nil) {
		t.Fatalf("%s: qualification presence differs", name)
	}
	if a.Qual != nil && (a.Qual.Deviation != b.Qual.Deviation || a.Qual.Significance != b.Qual.Significance) {
		t.Errorf("%s: qual (%v, %v%%) != (%v, %v%%)",
			name, a.Qual.Deviation, a.Qual.Significance, b.Qual.Deviation, b.Qual.Significance)
	}
}
