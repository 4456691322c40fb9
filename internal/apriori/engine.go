package apriori

import (
	"focus/internal/bitset"
	"focus/internal/txn"
)

// This file is the lits execution engine's decision layer. One predicate,
// indexFits, picks the backend of every operation over a dataset: when the
// dataset's vertical index is memoized or small enough to build, pass 1
// comes from the index, candidates are counted by bitmap intersections,
// mining runs the vertical DFS and bootstrap replicates run as weighted
// views; otherwise the engine runs its TrieSource — pass 1 by a horizontal
// scan, candidates counted by the trie, levelwise mining (MineFrom) — and
// replicates are materialized. The fallback is the bounded-memory path for
// inputs whose index would be huge. Every path returns bit-identical
// integer counts, so the choice is purely one of memory and speed.

// autoIndexBytes caps the estimated footprint (bytes) of a vertical index
// the engine builds on its own initiative.
const autoIndexBytes = 1 << 28

// indexBytes bounds the footprint (bytes) of d's vertical index: a 4-byte
// slot per universe item, plus a bitset of Words(|D|) words, its slice
// header and its count per item present. At most min(|I|, Σ|t|) items are
// present, so a small or sparse batch is costed by the items it can hold,
// not by the width of its universe.
func indexBytes(d *txn.Dataset) int64 {
	present := 0
	for _, t := range d.Txns {
		present += len(t)
	}
	present = min(present, d.NumItems)
	return 4*int64(d.NumItems) + int64(present)*(32+8*int64(bitset.Words(d.Len())))
}

// indexFits reports whether d's lits scans should run through its vertical
// index: yes when the index is already memoized, or when indexBytes fits
// autoIndexBytes.
func indexFits(d *txn.Dataset) bool {
	return d.HasMemo() || indexBytes(d) <= autoIndexBytes
}

// TrieSource is the engine's bounded-memory fallback as a count source:
// pass 1 by a horizontal scan and candidate counts by the prefix-trie
// scan, with Parallelism workers (0 = the process default, 1 = the exact
// serial path). It builds no index; levelwise mining over it (MineFrom) is
// the fallback's miner.
type TrieSource struct {
	D           *txn.Dataset
	Parallelism int
}

// NumTxns returns |D|.
func (s TrieSource) NumTxns() int { return s.D.Len() }

// NumItems returns the size of the item universe.
func (s TrieSource) NumItems() int { return s.D.NumItems }

// ItemCounts returns the absolute per-item support counts by a horizontal
// scan.
func (s TrieSource) ItemCounts() []int { return horizontalItemCounts(s.D, s.Parallelism) }

// Count returns the support counts of sets by one trie scan.
func (s TrieSource) Count(sets []Itemset) []int { return CountItemsetsTrie(s.D, sets, s.Parallelism) }

// Engine binds a dataset to the lits execution engine: Mine, Count and
// ItemCounts each take the vertical index when indexFits and the embedded
// TrieSource otherwise. An Engine implements Source, so levelwise mining
// consumes it directly.
type Engine struct{ TrieSource }

// NewEngine returns an engine over d with the given parallelism (0 = the
// process default, 1 = the exact serial path).
func NewEngine(d *txn.Dataset, parallelism int) *Engine {
	return &Engine{TrieSource{D: d, Parallelism: parallelism}}
}

// ItemCounts returns the absolute per-item support counts (Apriori's first
// pass): from the vertical index (building it for the candidate counts
// that follow) when it fits, by a horizontal scan otherwise.
func (e *Engine) ItemCounts() []int {
	if indexFits(e.D) {
		return VerticalIndexOf(e.D, e.Parallelism).ItemCounts()
	}
	return e.TrieSource.ItemCounts()
}

// Count returns the support counts of sets, through the vertical index
// when it fits and the trie scan otherwise.
func (e *Engine) Count(sets []Itemset) []int {
	if indexFits(e.D) {
		return CountItemsetsBitmap(e.D, sets, e.Parallelism)
	}
	return e.TrieSource.Count(sets)
}

// Mine mines the frequent itemsets of the engine's dataset at minSupport,
// by the vertical DFS when the index fits and levelwise over the trie
// otherwise. Both produce bit-identical frequent sets: identical itemsets
// in identical (lexicographic) order with identical counts.
func (e *Engine) Mine(minSupport float64) (*FrequentSet, error) {
	if indexFits(e.D) {
		return MineVertical(e.D, minSupport, e.Parallelism)
	}
	return MineFrom(e.TrieSource, minSupport)
}
