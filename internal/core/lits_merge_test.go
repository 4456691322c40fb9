package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"focus/internal/apriori"
	"focus/internal/txn"
)

// gcrOracle is the GCR as a set union: key every itemset of both models
// into a map, then sort the union. mergeGCR must agree with it exactly.
func gcrOracle(fs1, fs2 *apriori.FrequentSet) []apriori.Itemset {
	seen := make(map[string]bool, fs1.Len()+fs2.Len())
	var out []apriori.Itemset
	for _, fs := range []*apriori.FrequentSet{fs1, fs2} {
		for _, s := range fs.Itemsets {
			if k := s.Key(); !seen[k] {
				seen[k] = true
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// sortedSets builds a strictly ordered frequent set of the given itemsets
// (deduplicated), with counts that identify each itemset's position.
func sortedSets(sets ...apriori.Itemset) *apriori.FrequentSet {
	seen := map[string]bool{}
	fs := &apriori.FrequentSet{}
	for _, s := range sets {
		if !seen[s.Key()] {
			seen[s.Key()] = true
			fs.Itemsets = append(fs.Itemsets, s)
		}
	}
	sort.Slice(fs.Itemsets, func(i, j int) bool { return fs.Itemsets[i].Less(fs.Itemsets[j]) })
	for i := range fs.Itemsets {
		fs.Counts = append(fs.Counts, 1000+i)
	}
	return fs
}

func randomSets(rng *rand.Rand, n, universe, maxLen int) []apriori.Itemset {
	out := make([]apriori.Itemset, n)
	for i := range out {
		items := make([]txn.Item, 1+rng.Intn(maxLen))
		for j := range items {
			items[j] = txn.Item(rng.Intn(universe))
		}
		out[i] = apriori.NewItemset(items...)
	}
	return out
}

// holds reports whether fs holds s, by binary search over its
// lexicographically ordered itemsets.
func holds(fs *apriori.FrequentSet, s apriori.Itemset) bool {
	i := sort.Search(fs.Len(), func(i int) bool { return !fs.Itemsets[i].Less(s) })
	return i < fs.Len() && fs.Itemsets[i].Equal(s)
}

func checkMerge(t *testing.T, name string, fs1, fs2 *apriori.FrequentSet) {
	t.Helper()
	gcr, in1, in2 := mergeGCR(fs1, fs2)
	want := gcrOracle(fs1, fs2)
	if len(gcr) != len(want) || len(in1) != len(gcr) || len(in2) != len(gcr) {
		t.Fatalf("%s: %d itemsets (%d/%d positions), oracle %d", name, len(gcr), len(in1), len(in2), len(want))
	}
	for i := range want {
		if !gcr[i].Equal(want[i]) {
			t.Fatalf("%s: gcr[%d] = %v, oracle %v", name, i, gcr[i], want[i])
		}
	}
	for side, c := range []struct {
		fs *apriori.FrequentSet
		in []int
	}{{fs1, in1}, {fs2, in2}} {
		found := 0
		for i, k := range c.in {
			if k < 0 {
				if holds(c.fs, gcr[i]) {
					t.Fatalf("%s: gcr[%d] = %v marked absent from side %d, which holds it", name, i, gcr[i], side+1)
				}
				continue
			}
			found++
			if !c.fs.Itemsets[k].Equal(gcr[i]) {
				t.Fatalf("%s: in%d[%d] = %d indexes %v, not %v", name, side+1, i, k, c.fs.Itemsets[k], gcr[i])
			}
		}
		if found != c.fs.Len() {
			t.Fatalf("%s: side %d positions cover %d of its %d itemsets", name, side+1, found, c.fs.Len())
		}
	}
	if got := GCRItemsets(&LitsModel{FS: fs1}, &LitsModel{FS: fs2}); len(got) != len(gcr) {
		t.Fatalf("%s: GCRItemsets returned %d itemsets, mergeGCR %d", name, len(got), len(gcr))
	}
}

func TestMergeGCRMatchesOracle(t *testing.T) {
	set := apriori.NewItemset
	a := sortedSets(set(1), set(1, 2), set(1, 2, 3), set(2), set(4))
	empty := sortedSets()
	for _, tc := range []struct {
		name     string
		fs1, fs2 *apriori.FrequentSet
	}{
		{"both empty", empty, empty},
		{"left empty", empty, a},
		{"right empty", a, empty},
		{"identical", a, sortedSets(a.Itemsets...)},
		{"disjoint", a, sortedSets(set(0), set(0, 5), set(5), set(6, 7))},
		{"shared prefixes", sortedSets(set(1), set(1, 2), set(1, 2, 3, 4)), sortedSets(set(1, 2, 3), set(1, 3), set(2))},
		{"one longer", sortedSets(set(1)), a},
	} {
		checkMerge(t, tc.name, tc.fs1, tc.fs2)
	}
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 200; trial++ {
		universe := 2 + rng.Intn(8)
		shared := randomSets(rng, rng.Intn(6), universe, 4)
		fs1 := sortedSets(append(randomSets(rng, rng.Intn(20), universe, 4), shared...)...)
		fs2 := sortedSets(append(randomSets(rng, rng.Intn(20), universe, 4), shared...)...)
		checkMerge(t, "random", fs1, fs2)
	}
	// Mined model pairs, as the deviation pipeline meets them.
	for trial := 0; trial < 20; trial++ {
		d1 := skewedTxnDataset(rng, 80+rng.Intn(80), 12, 6)
		d2 := skewedTxnDataset(rng, 80+rng.Intn(80), 12, 6)
		m1, err := MineLits(d1, 0.05+0.1*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		m2, err := MineLits(d2, 0.05+0.1*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		checkMerge(t, "mined", m1.FS, m2.FS)
	}
}

// checkStrictOrder requires every itemset of fs to be Less than the next:
// the invariant the GCR merge relies on.
func checkStrictOrder(t *testing.T, name string, fs *apriori.FrequentSet) {
	t.Helper()
	for i := 1; i < fs.Len(); i++ {
		if !fs.Itemsets[i-1].Less(fs.Itemsets[i]) {
			t.Fatalf("%s: itemset %d %v is not before itemset %d %v", name, i-1, fs.Itemsets[i-1], i, fs.Itemsets[i])
		}
	}
}

func sameFrequentSet(t *testing.T, name string, got, want *apriori.FrequentSet) {
	t.Helper()
	if got.Len() != want.Len() || got.N != want.N {
		t.Fatalf("%s: %d itemsets over %d txns, want %d over %d", name, got.Len(), got.N, want.Len(), want.N)
	}
	for i := range want.Itemsets {
		if !got.Itemsets[i].Equal(want.Itemsets[i]) || got.Counts[i] != want.Counts[i] {
			t.Fatalf("%s: itemset %d = %v:%d, want %v:%d", name, i, got.Itemsets[i], got.Counts[i], want.Itemsets[i], want.Counts[i])
		}
	}
}

// TestFrequentSetProducersStrictlyOrdered checks the output of every
// FrequentSet producer for strict lexicographic order. View.Mine is also
// checked against mining the materialized resample, over consecutive mines
// that reuse the view's output buffers and regrow its item arena.
func TestFrequentSetProducersStrictlyOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for trial := 0; trial < 8; trial++ {
		d := skewedTxnDataset(rng, 200+rng.Intn(200), 16, 7)
		ms := 0.02 + 0.08*rng.Float64()
		for _, p := range []int{1, 4} {
			fs, err := apriori.MineVertical(d, ms, p)
			if err != nil {
				t.Fatal(err)
			}
			checkStrictOrder(t, "MineVertical", fs)
		}
		fs, err := apriori.MineFrom(apriori.NewEngine(d, 1), ms)
		if err != nil {
			t.Fatal(err)
		}
		checkStrictOrder(t, "MineFrom", fs)

		wm := apriori.NewWindowMiner(d.NumItems)
		half := &txn.Dataset{NumItems: d.NumItems, Txns: d.Txns[:d.Len()/2]}
		rest := &txn.Dataset{NumItems: d.NumItems, Txns: d.Txns[d.Len()/2:]}
		wm.Push(half, 1)
		wm.Push(rest, 1)
		if fs, err = wm.Mine(ms); err != nil {
			t.Fatal(err)
		}
		checkStrictOrder(t, "WindowMiner.Mine", fs)

		v := apriori.NewView(d, 1)
		for i, n := range []int{d.Len(), d.Len() / 4, 3 * d.Len()} {
			seed := rng.Int63()
			v.Draw(n, rand.New(rand.NewSource(seed)))
			got, err := v.Mine(ms)
			if err != nil {
				t.Fatal(err)
			}
			checkStrictOrder(t, "View.Mine", got)
			want, err := apriori.MineVertical(d.Resample(n, rand.New(rand.NewSource(seed))), ms, 1)
			if err != nil {
				t.Fatal(err)
			}
			sameFrequentSet(t, "View.Mine", got, want)
			if i == 0 && got.Len() == 0 {
				t.Fatalf("trial %d: view mined nothing at support %v", trial, ms)
			}
		}
	}
}

// decodeQualifyPool decodes fuzz bytes into transactions over universe
// items: byte b is item b mod (universe+1), with the value universe ending
// a transaction.
func decodeQualifyPool(universe int, data []byte) []txn.Transaction {
	var out []txn.Transaction
	var cur txn.Transaction
	for _, b := range data {
		v := int(b) % (universe + 1)
		if v == universe {
			out = append(out, cur.Normalize())
			cur = nil
			continue
		}
		cur = append(cur, txn.Item(v))
	}
	if len(cur) > 0 {
		out = append(out, cur.Normalize())
	}
	return out
}

// FuzzQualifyViewBootstrap qualifies a fuzzed pair of datasets through the
// generic Resample/Induce/MeasureGCR replicate (genericLits) and through
// bootstrap views (Lits) at parallelism 1 and 4: the
// deviation, the significance and every null value must agree to the bit.
// flags bit 0 selects an extension bootstrap, bit 1 a focus predicate, and
// the rest seeds the bootstrap; split picks where d1 ends.
func FuzzQualifyViewBootstrap(f *testing.F) {
	// d1 = {0},{1} mines nothing at 100% support; d2 = {2},{2 3} mines {2}.
	f.Add(uint8(4), uint8(99), uint8(0), uint8(1), []byte{0, 5, 1, 5, 2, 5, 2, 3, 5})
	// {0 1} frequent in d1 only, {2 3} in d2 only, at 50% support.
	f.Add(uint8(3), uint8(49), uint8(4), uint8(3),
		[]byte{0, 1, 4, 0, 1, 4, 0, 4, 1, 4, 2, 3, 4, 2, 3, 4, 2, 4, 3, 4})
	// An extension bootstrap: d2 extends d1 by a block of fresh rows.
	f.Add(uint8(5), uint8(30), uint8(9), uint8(2),
		[]byte{0, 1, 2, 6, 0, 1, 6, 3, 6, 0, 1, 2, 6, 0, 1, 6, 3, 4, 6, 5, 4, 6, 3, 4, 5, 6})
	// Focused, over a denser pool.
	f.Add(uint8(7), uint8(20), uint8(6), uint8(9), []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, nitems, msRaw, flags, split uint8, data []byte) {
		universe := int(nitems)%12 + 1
		txns := decodeQualifyPool(universe, data)
		if len(txns) < 2 || len(txns) > 400 {
			return
		}
		extension := flags&1 != 0
		n1 := 1 + int(split)%(len(txns)-1)
		if extension && len(txns)-n1 < n1 {
			n1 = len(txns) - n1
		}
		d1 := &txn.Dataset{NumItems: universe, Txns: txns[:n1]}
		d2 := &txn.Dataset{NumItems: universe, Txns: txns[n1:]}
		minSupport := (float64(msRaw%100) + 1) / 100
		opts := []Option{WithReplicates(7), WithSeed(int64(flags >> 2))}
		if extension {
			opts = append(opts, WithExtension())
		}
		if flags&2 != 0 {
			opts = append(opts, WithFocusItemsets(func(s apriori.Itemset) bool { return len(s) >= 2 }))
		}
		want, err := Qualify(genericLits(minSupport), d1, d2, AbsoluteDiff, Sum,
			append([]Option{WithParallelism(1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			got, err := Qualify(Lits(minSupport), d1, d2, AbsoluteDiff, Sum,
				append([]Option{WithParallelism(p)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !same(got.Deviation, want.Deviation) || !same(got.Significance, want.Significance) {
				t.Fatalf("par%d: (dev, sig) = (%v, %v), generic (%v, %v)",
					p, got.Deviation, got.Significance, want.Deviation, want.Significance)
			}
			if len(got.Null) != len(want.Null) {
				t.Fatalf("par%d: %d null values, generic %d", p, len(got.Null), len(want.Null))
			}
			for i := range want.Null {
				if !same(got.Null[i], want.Null[i]) {
					t.Fatalf("par%d: null[%d] = %v, generic %v", p, i, got.Null[i], want.Null[i])
				}
			}
		}
	})
}
