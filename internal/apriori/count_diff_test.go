package apriori

// The differential harness of the two counting backends: for every dataset
// shape the framework can produce — dense, sparse, empty transactions,
// singleton universes, duplicate candidate itemsets, out-of-universe items
// in the candidates — the trie subset scan and the vertical bitmap index
// must return bit-identical counts (and both must match the quadratic
// brute-force reference), at every parallelism. FuzzCountBackends extends
// the sweep to arbitrary encoded inputs.

import (
	"fmt"
	"math/rand"
	"testing"

	"focus/internal/txn"
)

// diffDataset builds a random dataset of n transactions over universe
// items with the given expected transaction length, including a sprinkle
// of empty transactions.
func diffDataset(rng *rand.Rand, n, universe, avgLen int) *txn.Dataset {
	d := txn.New(universe)
	for i := 0; i < n; i++ {
		if rng.Intn(20) == 0 {
			d.Add(txn.Transaction{}) // empty transaction
			continue
		}
		l := 1 + rng.Intn(2*avgLen)
		t := make(txn.Transaction, l)
		for j := range t {
			t[j] = txn.Item(rng.Intn(universe))
		}
		d.Add(t.Normalize())
	}
	return d
}

// diffItemsets builds candidate itemsets over a slightly larger alphabet
// than the universe (so some itemsets mention items no transaction can
// contain), with deliberate duplicates and one empty itemset.
func diffItemsets(rng *rand.Rand, count, universe int) []Itemset {
	out := make([]Itemset, 0, count+2)
	for i := 0; i < count; i++ {
		l := 1 + rng.Intn(4)
		items := make([]txn.Item, l)
		for j := range items {
			items[j] = txn.Item(rng.Intn(universe + 2)) // may exceed the universe
		}
		out = append(out, NewItemset(items...))
	}
	if len(out) > 0 {
		out = append(out, out[0].Clone()) // duplicate candidate
	}
	out = append(out, Itemset{}) // empty itemset counts every transaction
	return out
}

func assertSameCounts(t *testing.T, label string, want, got []int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d counts, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: count[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestCountBackendsEquivalent is the randomized differential sweep: trie ==
// bitmap == brute across densities, universes and parallelism.
func TestCountBackendsEquivalent(t *testing.T) {
	cases := []struct {
		name                string
		n, universe, avgLen int
		sets                int
	}{
		{"sparse", 500, 300, 4, 80},
		{"dense", 700, 40, 15, 120},
		{"singleton-universe", 200, 1, 1, 10},
		{"tiny", 3, 20, 4, 30},
		{"wide", 1500, 800, 8, 200},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			d := diffDataset(rng, tc.n, tc.universe, tc.avgLen)
			sets := diffItemsets(rng, tc.sets, tc.universe)
			want := CountItemsetsBrute(d, sets)
			for _, p := range []int{1, 4, 0} {
				assertSameCounts(t, "trie", want, CountItemsetsTrie(d, sets, p))
				assertSameCounts(t, "bitmap", want, CountItemsetsBitmap(d, sets, p))
				assertSameCounts(t, "auto", want, CountItemsetsP(d, sets, p))
			}
		})
	}
}

// TestCountBackendsEmptyInputs pins the degenerate shapes.
func TestCountBackendsEmptyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(2000))
	d := diffDataset(rng, 100, 30, 5)
	backends := map[string]func(*txn.Dataset, []Itemset) []int{
		"trie":   func(d *txn.Dataset, sets []Itemset) []int { return CountItemsetsTrie(d, sets, 4) },
		"bitmap": func(d *txn.Dataset, sets []Itemset) []int { return CountItemsetsBitmap(d, sets, 4) },
		"auto":   func(d *txn.Dataset, sets []Itemset) []int { return CountItemsetsP(d, sets, 4) },
	}
	for name, count := range backends {
		if got := count(d, nil); len(got) != 0 {
			t.Fatalf("%s: empty sets returned %v", name, got)
		}
		empty := txn.New(30)
		got := count(empty, diffItemsets(rng, 5, 30))
		for i, v := range got {
			if v != 0 {
				t.Fatalf("%s: empty dataset count[%d] = %d", name, i, v)
			}
		}
	}
	// The empty itemset over a non-empty dataset counts |D| in all backends.
	sets := []Itemset{{}}
	if got := CountItemsetsTrie(d, sets, 1)[0]; got != d.Len() {
		t.Fatalf("trie empty-itemset count = %d, want %d", got, d.Len())
	}
	if got := CountItemsetsBitmap(d, sets, 1)[0]; got != d.Len() {
		t.Fatalf("bitmap empty-itemset count = %d, want %d", got, d.Len())
	}
}

// TestMineWithBackendsIdentical mines the same dataset levelwise over the
// trie, by the vertical DFS, and through the engine, and requires
// bit-identical frequent sets.
func TestMineWithBackendsIdentical(t *testing.T) {
	d := randomCountDataset(1200, 50, 77)
	trie, err := mineLevelwise(d, 0.04, 1)
	if err != nil {
		t.Fatal(err)
	}
	miners := map[string]func(int) (*FrequentSet, error){
		"vertical": func(p int) (*FrequentSet, error) { return MineVertical(d, 0.04, p) },
		"engine":   func(p int) (*FrequentSet, error) { return MineP(d, 0.04, p) },
	}
	for name, mine := range miners {
		for _, p := range []int{1, 4} {
			got, err := mine(p)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMine(t, fmt.Sprintf("%s/par%d", name, p), trie, got)
		}
	}
}

// TestIndexFits pins the engine's one backend decision. The index is
// costed by the items a dataset can hold, not by its universe: a 60-row
// batch over 2^20 items fits. Over 2^20 items, single-item transactions
// cost 4·2^20 bytes of slots plus 32+8·Words(N) bytes each, so 45824 of
// them (716 words) fit the 2^28-byte cap and 45825 (717 words) do not; a
// memoized index always fits.
func TestIndexFits(t *testing.T) {
	wide := func(n int) *txn.Dataset {
		d := txn.New(1 << 20)
		for i := 0; i < n; i++ {
			d.Add(txn.Transaction{txn.Item(i)})
		}
		return d
	}
	if !indexFits(wide(60)) {
		t.Fatal("a 60-row batch over 2^20 items does not fit")
	}
	if !indexFits(wide(45824)) {
		t.Fatal("a 716-word index over 2^20 items does not fit")
	}
	if indexFits(wide(45825)) {
		t.Fatal("a 717-word index over 2^20 items fits")
	}
	d := randomCountDataset(300, 25, 81)
	VerticalIndexOf(d, 1)
	d.NumItems = 1 << 30
	if !indexFits(d) {
		t.Fatal("a memoized index does not fit")
	}
}

// TestEngineFallback drives the engine past the index memory cap — 43000
// transactions hold enough item occurrences to fill a 50000-item universe,
// at 672 words per item — and requires that it builds no index and still counts, mines and
// scans pass 1 exactly like the index path over the same transactions.
func TestEngineFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	small := diffDataset(rng, 43000, 40, 3)
	wide := &txn.Dataset{NumItems: 50000, Txns: small.Txns}
	if indexFits(wide) {
		t.Fatal("the wide dataset fits the index cap")
	}
	sets := diffItemsets(rng, 60, 40)
	assertSameCounts(t, "fallback count", CountItemsetsP(small, sets, 2), CountItemsetsP(wide, sets, 2))
	want, err := MineP(small, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineP(wide, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMine(t, "fallback mine", want, got)
	assertSameCounts(t, "fallback pass 1", ItemCountsP(small, 1), ItemCountsP(wide, 1)[:40])
	if wide.HasMemo() {
		t.Fatal("the fallback built a vertical index")
	}
	if UseViewBootstrap(wide) {
		t.Fatal("the fallback took the view bootstrap")
	}
}

// TestVerticalIndexMemoized checks that the index is built once per
// dataset and that txn.Dataset.Add invalidates it.
func TestVerticalIndexMemoized(t *testing.T) {
	d := randomCountDataset(300, 25, 78)
	ix1 := VerticalIndexOf(d, 1)
	ix2 := VerticalIndexOf(d, 4)
	if ix1 != ix2 {
		t.Fatal("VerticalIndexOf rebuilt a memoized index")
	}
	if ix1.NumTxns() != d.Len() {
		t.Fatalf("index NumTxns = %d, want %d", ix1.NumTxns(), d.Len())
	}
	d.Add(txn.Transaction{0, 1})
	ix3 := VerticalIndexOf(d, 1)
	if ix3 == ix1 {
		t.Fatal("Add did not invalidate the memoized index")
	}
	if ix3.NumTxns() != d.Len() {
		t.Fatalf("rebuilt index NumTxns = %d, want %d", ix3.NumTxns(), d.Len())
	}
}

// TestVerticalIndexItemCounts cross-checks pass-1 counts between the index
// and the direct scan.
func TestVerticalIndexItemCounts(t *testing.T) {
	d := randomCountDataset(900, 35, 79)
	want := ItemCountsP(d, 1)
	got := BuildVerticalIndex(d, 4).ItemCounts()
	assertSameCounts(t, "item counts", want, got)
}

func TestParseCounter(t *testing.T) {
	for _, name := range []string{"", "auto", "trie", "bitmap"} {
		if _, err := ParseCounter(name); err != nil {
			t.Fatalf("ParseCounter(%q): %v", name, err)
		}
	}
	for _, name := range []string{"btree", "Bitmap", "vertical", "0"} {
		if _, err := ParseCounter(name); err == nil {
			t.Fatalf("ParseCounter(%q) accepted an invalid backend", name)
		}
	}
}

// decodeFuzzTxns decodes fuzz bytes into transactions over [0, universe):
// each byte is an item; a byte mapping to the universe size ends the
// current transaction, which may leave it empty.
func decodeFuzzTxns(universe int, data []byte) *txn.Dataset {
	d := txn.New(universe)
	var cur txn.Transaction
	for _, b := range data {
		v := int(b) % (universe + 1)
		if v == universe {
			d.Add(cur.Normalize())
			cur = nil
			continue
		}
		cur = append(cur, txn.Item(v))
	}
	if len(cur) > 0 {
		d.Add(cur.Normalize())
	}
	return d
}

// decodeFuzzSets decodes fuzz bytes into candidate itemsets over a
// slightly larger alphabet than the universe, so out-of-universe items are
// exercised.
func decodeFuzzSets(universe int, data []byte) []Itemset {
	var out []Itemset
	var cur []txn.Item
	for _, b := range data {
		v := int(b) % (universe + 3)
		if v >= universe+1 {
			out = append(out, NewItemset(cur...))
			cur = nil
			continue
		}
		cur = append(cur, txn.Item(v))
	}
	out = append(out, NewItemset(cur...))
	return out
}

// FuzzCountBackends cross-checks the two backends (and the brute-force
// reference) on arbitrary encoded datasets and candidate collections. Any
// divergence between trie and bitmap counts is a bug by definition.
func FuzzCountBackends(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 2, 5, 1, 2, 5, 2, 3}, []byte{1, 2, 6, 2, 3})
	f.Add(uint8(1), []byte{0, 1, 0, 1, 1}, []byte{0, 1, 0})
	f.Add(uint8(64), []byte("the quick brown fox"), []byte("jumps over"))
	f.Add(uint8(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, nitems uint8, txnData, setData []byte) {
		universe := int(nitems)%64 + 1
		d := decodeFuzzTxns(universe, txnData)
		if err := d.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid dataset: %v", err)
		}
		sets := decodeFuzzSets(universe, setData)
		want := CountItemsetsBrute(d, sets)
		for _, p := range []int{1, 3} {
			assertSameCounts(t, "trie", want, CountItemsetsTrie(d, sets, p))
			assertSameCounts(t, "bitmap", want, CountItemsetsBitmap(d, sets, p))
		}
		assertSameCounts(t, "auto", want, CountItemsetsP(d, sets, 2))
	})
}
