package focus_test

// Equivalence sweeps of the unified pipeline: cluster qualification is
// deterministic and parallelism-invariant, and every lits pipeline is
// bit-identical (==, not approximately equal) across counting backends.

import (
	"testing"

	"focus"
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

// The counting-backend contract of the vertical-bitmap refactor: every
// lits pipeline — batch deviation, bootstrap qualification, incremental
// monitoring — produces bit-identical (==, not approximately equal)
// results whether itemset supports come from the trie subset scan or from
// the vertical TID-bitmap index, across f/g and parallelism. CI runs this
// sweep under -race, which also exercises the memoized index build from
// concurrent counting workers.

// TestCounterEquivalenceDeviation mines and measures through each forced
// backend end to end and requires identical models and deviations.
func TestCounterEquivalenceDeviation(t *testing.T) {
	d1, _, d3 := facadeTxnData(t)
	const ms = 0.03
	for _, fg := range fgCases() {
		for _, par := range parCases {
			devs := make([]float64, 0, 2)
			lens := make([]int, 0, 2)
			for _, c := range []focus.Counter{focus.CounterTrie, focus.CounterBitmap} {
				mc := focus.LitsWithCounter(ms, c)
				m1, err := mc.Induce(d1, par)
				if err != nil {
					t.Fatal(err)
				}
				m3, err := mc.Induce(d3, par)
				if err != nil {
					t.Fatal(err)
				}
				dev, err := focus.Deviation(mc, m1, m3, d1, d3, fg.f, fg.g,
					focus.WithParallelism(par), focus.WithCounter(c))
				if err != nil {
					t.Fatal(err)
				}
				devs = append(devs, dev)
				lens = append(lens, m1.Len()+m3.Len())
			}
			if lens[0] != lens[1] {
				t.Errorf("%s/par%d: trie mined %d itemsets, bitmap %d", fg.name, par, lens[0], lens[1])
			}
			if devs[0] != devs[1] {
				t.Errorf("%s/par%d: trie deviation %v != bitmap %v", fg.name, par, devs[0], devs[1])
			}
		}
	}
}

// TestCounterEquivalenceQualify runs the full bootstrap through each
// backend: observed deviation, significance and the whole null
// distribution must match exactly.
func TestCounterEquivalenceQualify(t *testing.T) {
	d1, _, d3 := facadeTxnData(t)
	const ms = 0.03
	for _, fg := range fgCases() {
		for _, par := range parCases {
			trie, err := focus.Qualify(focus.LitsWithCounter(ms, focus.CounterTrie), d1, d3, fg.f, fg.g,
				focus.WithReplicates(19), focus.WithSeed(13), focus.WithParallelism(par),
				focus.WithCounter(focus.CounterTrie))
			if err != nil {
				t.Fatal(err)
			}
			bitmap, err := focus.Qualify(focus.LitsWithCounter(ms, focus.CounterBitmap), d1, d3, fg.f, fg.g,
				focus.WithReplicates(19), focus.WithSeed(13), focus.WithParallelism(par),
				focus.WithCounter(focus.CounterBitmap))
			if err != nil {
				t.Fatal(err)
			}
			qualEqual(t, "counter-"+fg.name, trie, bitmap)
		}
	}
}

// TestCounterEquivalenceMonitor replays one batch stream through a trie
// monitor and a bitmap monitor (window advance, expiry, alerts,
// qualification) and requires identical reports at every step.
func TestCounterEquivalenceMonitor(t *testing.T) {
	d1, d2, d3 := facadeTxnData(t)
	const ms = 0.03
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
			trieMon, err := focus.NewMonitor(focus.LitsWithCounter(ms, focus.CounterTrie), d1, opts...)
			if err != nil {
				t.Fatal(err)
			}
			bitmapMon, err := focus.NewMonitor(focus.LitsWithCounter(ms, focus.CounterBitmap), d1, opts...)
			if err != nil {
				t.Fatal(err)
			}
			emitted := false
			for _, batch := range [][]focus.Transaction{
				d2.Txns[:800], d3.Txns[:800], d2.Txns[800:1600], d3.Txns[800:1600],
			} {
				trieRep, err := trieMon.Ingest(focus.FromTransactions(d1.NumItems, batch))
				if err != nil {
					t.Fatal(err)
				}
				bitmapRep, err := bitmapMon.Ingest(focus.FromTransactions(d1.NumItems, batch))
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "counter-"+fg.name, trieRep, bitmapRep)
				emitted = emitted || trieRep != nil
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
