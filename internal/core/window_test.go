package core

import (
	"math/rand"
	"runtime"
	"testing"

	"focus/internal/apriori"
	"focus/internal/txn"
)

func windowTestBatches(seed int64, batches, size, numItems, maxLen int) []*txn.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*txn.Dataset, batches)
	for b := range out {
		d := txn.New(numItems)
		for i := 0; i < size; i++ {
			t := make(txn.Transaction, 1+rng.Intn(maxLen))
			for j := range t {
				t[j] = txn.Item(rng.Intn(numItems))
			}
			d.Add(t.Normalize())
		}
		out[b] = d
	}
	return out
}

// The per-batch caches must make a stable candidate set cheap: after one
// model induction over the window, every candidate itemset is cached in
// every retained batch, so re-counting it costs slice reads, not rescans.
func TestLitsWindowCachesCounts(t *testing.T) {
	const numItems = 20
	w, err := Lits(0.08).NewWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	lw := w.(*litsWindow)
	for _, d := range windowTestBatches(95, 3, 30, numItems, 6) {
		if err := w.Add(d, 1); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Induce()
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() == 0 {
		t.Fatal("window model has no frequent itemsets")
	}
	// Counting the model's own itemsets again must be served entirely from
	// the caches.
	lw.Count(m.FS.Itemsets)
	for i, b := range lw.batchList {
		cached := 0
		for _, c := range b.counts {
			if c >= 0 {
				cached++
			}
		}
		if cached == 0 {
			t.Errorf("batch %d: empty candidate cache after induction", i)
		}
	}
	// The window aggregate must track the batches exactly.
	wantN := 0
	items := make([]int, numItems)
	for _, b := range lw.batchList {
		wantN += b.data.Len()
		for j, v := range apriori.ItemCountsP(b.data, 1) {
			items[j] += v
		}
	}
	if lw.n != wantN {
		t.Errorf("window n=%d, want %d", lw.n, wantN)
	}
	for j := range items {
		if items[j] != lw.items[j] {
			t.Fatalf("windowed item counts diverged at item %d: %d != %d", j, lw.items[j], items[j])
		}
	}
}

// A window over a wide universe must hold little per retained batch. Four
// sealed 60-row batches over 2^20 items, each indexed by window counting,
// may keep their indexes' 4-byte slot per universe item, and the window
// its own 8-byte pass-1 vector: 24 MB. The bound, 8 MB plus 6 bytes per
// item per batch, is under the 40 MB a window holds when every batch also
// keeps an 8-byte pass-1 vector.
func TestLitsWindowWideUniverseFootprint(t *testing.T) {
	const numItems, batches = 1 << 20, 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := Lits(0.1).NewWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	lw := w.(*litsWindow)
	for b := 0; b < batches; b++ {
		d := txn.New(numItems)
		for i := 0; i < 60; i++ {
			d.Add(txn.Transaction{txn.Item(i), txn.Item(1000 + b*100 + i)})
		}
		if err := w.Add(d, 1); err != nil {
			t.Fatal(err)
		}
	}
	lw.Count([]apriori.Itemset{{1, 1001}, {2, 3}})
	for i, b := range lw.batchList {
		if !b.data.HasMemo() {
			t.Fatalf("batch %d was counted without its vertical index", i)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("window holds %.1f MB after GC", float64(held)/(1<<20))
	if limit := int64(numItems * (8 + 6*batches)); held > limit {
		t.Fatalf("window holds %.1f MB after GC, want at most %.1f MB", float64(held)/(1<<20), float64(limit)/(1<<20))
	}
	runtime.KeepAlive(w)
}

// A clone shares sealed batch summaries and the intern table with its
// origin: counts cached through either window must stay valid for both,
// and removing a batch from one must not disturb the other.
func TestLitsWindowCloneSharesSummaries(t *testing.T) {
	const numItems = 15
	w, err := Lits(0.1).NewWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	batches := windowTestBatches(96, 3, 25, numItems, 5)
	for _, d := range batches[:2] {
		if err := w.Add(d, 1); err != nil {
			t.Fatal(err)
		}
	}
	snap := w.Clone()
	if err := w.Add(batches[2], 1); err != nil {
		t.Fatal(err)
	}
	w.RemoveFront()
	if snap.Batches() != 2 || snap.N() != batches[0].Len()+batches[1].Len() {
		t.Errorf("clone tracks origin mutations: %d batches / %d rows", snap.Batches(), snap.N())
	}
	m1, err := snap.Induce()
	if err != nil {
		t.Fatal(err)
	}
	// Inducing from the clone must equal inducing from its raw data.
	m2, err := MineLits(snap.Data(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Len() != m2.Len() {
		t.Errorf("clone model has %d itemsets, raw rebuild %d", m1.Len(), m2.Len())
	}
}

// LitsWithCounter is a stub kept for replayed session configs: every
// counter name ParseCounter accepts yields Lits, and any other panics.
func TestLitsWithCounterStub(t *testing.T) {
	for _, name := range []string{"", "auto", "trie", "bitmap"} {
		if got, want := LitsWithCounter(0.1, apriori.Counter(name)), Lits(0.1); got != want {
			t.Errorf("LitsWithCounter(%q) = %v, want %v", name, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("LitsWithCounter accepted an unknown counter")
		}
	}()
	LitsWithCounter(0.1, "btree")
}
