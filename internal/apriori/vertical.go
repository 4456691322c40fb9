package apriori

import (
	"fmt"

	"focus/internal/bitset"
	"focus/internal/parallel"
	"focus/internal/txn"
)

// This file implements the vertical (TID-bitmap) counting backend: instead
// of walking every transaction through the candidate trie, each item is
// mapped once to the bitset of transactions containing it, and the support
// of an itemset is the popcount of the AND of its items' bitsets. The two
// backends are exact alternatives — bit-identical integer counts — so the
// engine's choice between them (indexFits) is purely one of memory and
// speed; the differential harness in count_diff_test.go pins the
// equivalence down.

// Counter is the name of a retired counting-backend knob. focusd session
// configs — and so their snapshots and peer exports — still carry it, so
// it is validated (ParseCounter) and otherwise ignored: every lits scan
// takes the backend indexFits selects.
type Counter string

// CounterDefault is the unset knob (the zero value, and what snapshots and
// requests that omit a counter carry).
const CounterDefault Counter = ""

// ParseCounter validates a counter name: "", "auto", "trie" or "bitmap".
func ParseCounter(name string) (Counter, error) {
	switch name {
	case "", "auto", "trie", "bitmap":
		return Counter(name), nil
	}
	return CounterDefault, fmt.Errorf("apriori: unknown counter %q (want auto, trie or bitmap)", name)
}

// VerticalIndex is the vertical form of a transaction dataset: for each
// item occurring in some transaction, the bitset of transaction indexes
// containing it and its support count. Only the items present get a
// bitset, a slice header and a count; the universe costs one 4-byte slot
// per item, so a small batch over a wide universe stays small. Build one
// with BuildVerticalIndex, or let VerticalIndexOf memoize one on the
// dataset. A built index is immutable and safe for concurrent use.
type VerticalIndex struct {
	n      int
	slot   []int32      // by item: 1 + its position in sets and counts, 0 when absent
	sets   []bitset.Set // by position: the item's transaction bitset
	counts []int        // by position: the item's support count
}

// BuildVerticalIndex builds the vertical index of d, sharding the
// transaction scan across Workers(parallelism) workers on bitset-word
// boundaries so shards never share a word.
func BuildVerticalIndex(d *txn.Dataset, parallelism int) *VerticalIndex {
	// Pass 1: per-item occurrence counts, so only present items take a
	// position.
	itemCounts := horizontalItemCounts(d, parallelism)
	present := 0
	for _, c := range itemCounts {
		if c > 0 {
			present++
		}
	}
	ix := &VerticalIndex{
		n:      d.Len(),
		slot:   make([]int32, d.NumItems),
		sets:   make([]bitset.Set, 0, present),
		counts: make([]int, 0, present),
	}
	for it, c := range itemCounts {
		if c > 0 {
			ix.sets = append(ix.sets, bitset.New(ix.n))
			ix.counts = append(ix.counts, c)
			ix.slot[it] = int32(len(ix.sets))
		}
	}
	// Pass 2: set each transaction's bit in its items' bitsets. Chunks are
	// aligned to 64-transaction boundaries, so two shards never write the
	// same bitset word.
	chunks := parallel.ChunksAligned(len(d.Txns), parallel.Workers(parallelism), 64)
	if len(chunks) == 1 {
		ix.fill(d, chunks[0])
		return ix
	}
	parallel.Do(len(chunks), len(chunks), func(shard int, _ parallel.Chunk) {
		ix.fill(d, chunks[shard])
	})
	return ix
}

func (ix *VerticalIndex) fill(d *txn.Dataset, c parallel.Chunk) {
	for i := c.Lo; i < c.Hi; i++ {
		for _, it := range d.Txns[i] {
			ix.sets[ix.slot[it]-1].Set(i)
		}
	}
}

// VerticalIndexOf returns d's vertical index, building and memoizing it on
// the dataset on first use so repeated scans — streaming window re-counts,
// bootstrap draws over a shared pool — amortize construction. The dataset
// must not be mutated afterwards (see txn.Dataset.Memo, whose single slot
// this package owns).
func VerticalIndexOf(d *txn.Dataset, parallelism int) *VerticalIndex {
	memo := d.Memo(func() any { return BuildVerticalIndex(d, parallelism) })
	ix, ok := memo.(*VerticalIndex)
	if !ok {
		panic(fmt.Sprintf("apriori: dataset memo slot holds a foreign %T (the slot is reserved for the vertical index)", memo))
	}
	return ix
}

// NumTxns returns the number of transactions indexed.
func (ix *VerticalIndex) NumTxns() int { return ix.n }

// ItemCounts returns the absolute per-item support counts (a fresh slice).
func (ix *VerticalIndex) ItemCounts() []int {
	out := make([]int, len(ix.slot))
	for it, p := range ix.slot {
		if p > 0 {
			out[it] = ix.counts[p-1]
		}
	}
	return out
}

// bits returns the transaction bitset of item it, or nil when it lies
// outside the universe or occurs in no transaction.
func (ix *VerticalIndex) bits(it txn.Item) bitset.Set {
	if int(it) < 0 || int(it) >= len(ix.slot) || ix.slot[it] == 0 {
		return nil
	}
	return ix.sets[ix.slot[it]-1]
}

// Count returns, for each itemset in sets, the absolute number of indexed
// transactions containing it, by intersecting the items' bitsets with a
// popcount-fused final AND, sharding the itemsets across
// Workers(parallelism) workers (each with one private scratch set). Counts
// are bit-identical to the trie scan: both count exactly the transactions
// containing every item.
func (ix *VerticalIndex) Count(sets []Itemset, parallelism int) []int {
	counts := make([]int, len(sets))
	if len(sets) == 0 {
		return counts
	}
	parallel.Do(len(sets), parallelism, func(_ int, c parallel.Chunk) {
		var scratch bitset.Set
		for i := c.Lo; i < c.Hi; i++ {
			counts[i] = ix.countOne(sets[i], &scratch)
		}
	})
	return counts
}

// countOne counts a single sorted itemset; *scratch is lazily allocated
// worker-private intersection storage.
func (ix *VerticalIndex) countOne(s Itemset, scratch *bitset.Set) int {
	for _, it := range s {
		if ix.bits(it) == nil {
			return 0 // item outside the universe or in no transaction
		}
	}
	switch len(s) {
	case 0:
		return ix.n // the empty itemset covers every transaction
	case 1:
		return ix.counts[ix.slot[s[0]]-1]
	case 2:
		return bitset.AndCount(ix.bits(s[0]), ix.bits(s[1]))
	}
	if *scratch == nil {
		*scratch = bitset.New(ix.n)
	}
	acc := bitset.AndInto(*scratch, ix.bits(s[0]), ix.bits(s[1]))
	for _, it := range s[2 : len(s)-1] {
		acc = bitset.AndInto(acc, acc, ix.bits(it))
	}
	return bitset.AndCount(acc, ix.bits(s[len(s)-1]))
}
