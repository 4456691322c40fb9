package apriori

import (
	"focus/internal/bitset"
	"focus/internal/parallel"
	"focus/internal/txn"
)

// This file implements the vertical miner: Eclat-style depth-first search
// over the TID-bitmap index (Zaki, TKDE 2000), with the dEclat diffset
// refinement at deeper levels. A node of the search is a prefix itemset P
// with its transaction set t(P); extending P by item y intersects bitsets
// (support = weighted popcount), so mining never generates candidate lists
// or walks transactions. At shallow levels nodes carry tidsets and
// support(P∪{y}) = |t(P) ∩ t(y)|; from diffsetLevel on they carry diffsets
// relative to their parent — d(Py) = t(P) \ t(y) — and support(P∪{y}) =
// support(P) − |d(Py)|, with sibling diffsets composing as d(Pxy) =
// d(Py) \ d(Px). Supports are exact either way, and DFS preorder with
// ascending extension items IS lexicographic order (shorter prefixes
// first), so the output matches the levelwise miner's sorted FrequentSet
// bit for bit — the equivalence the differential harness in
// mine_diff_test.go pins down.
//
// The same walk runs multiplicity-weighted for bootstrap views: bit t then
// counts mult[t] instead of 1, which turns popcounts into bitset.Weight*
// sums and nothing else — see view.go.

// diffsetLevel is the itemset size from which miner nodes switch from
// tidsets to parent-relative diffsets. Sizes 1 and 2 stay on tidsets (the
// per-item index bitsets and their pairwise intersections); deeper prefixes
// are dense in their parent's tids, so the complement is the cheaper set to
// carry and to weigh.
const diffsetLevel = 3

// vnode is one extension of the current prefix P: the itemset P∪{item}
// with its support count and its set — t(P∪{item}) in tidset mode, or
// d = t(P) \ t(item) (tids of P lost by the extension) in diffset mode.
type vnode struct {
	item  txn.Item
	set   bitset.Set
	count int
}

// pairTable holds the supports of every ordered pair of frequent items
// (root ranks i < j), counted horizontally in one pass over the
// transactions. Intersecting bitsets for all O(roots²) candidate pairs
// costs O(roots² × words) regardless of how few pairs are frequent;
// counting pairs inside each transaction costs O(Σ |frequent items of t|²)
// — far less on sparse data — and lets the DFS materialize a bitset only
// for pairs that pass the threshold. Counts are exact integers either way,
// so the output is unchanged.
type pairTable struct {
	r      int
	counts []int32 // triangular, row i holding pairs (i, i+1..r-1)
	rank   []int32 // item -> root rank, -1 if infrequent
	buf    []int32 // per-transaction frequent-rank scratch
}

// base returns the offset of row i: pairs (i, j) live at base(i) + j-i-1.
func (pt *pairTable) base(i int) int { return i * (2*pt.r - i - 1) / 2 }

// at returns the support of the pair of root ranks i < j.
func (pt *pairTable) at(i, j int) int { return int(pt.counts[pt.base(i)+j-i-1]) }

// reset sizes the table for r roots over numItems items, reusing buffers.
func (pt *pairTable) reset(r, numItems int) {
	pt.r = r
	need := r * (r - 1) / 2
	if cap(pt.counts) < need {
		pt.counts = make([]int32, need)
	} else {
		pt.counts = pt.counts[:need]
		for i := range pt.counts {
			pt.counts[i] = 0
		}
	}
	if cap(pt.rank) < numItems {
		pt.rank = make([]int32, numItems)
	} else {
		pt.rank = pt.rank[:numItems]
	}
	for i := range pt.rank {
		pt.rank[i] = -1
	}
}

// countPairs fills the table with the (weighted) supports of all frequent
// pairs of d. mult nil counts every transaction once; non-nil weighs row t
// by mult[t]. Transactions are sorted-unique (txn.Dataset's validated
// form), and root items ascend, so the collected ranks ascend too.
func (pt *pairTable) countPairs(d *txn.Dataset, mult []int32, roots []vnode) {
	pt.reset(len(roots), d.NumItems)
	for i, x := range roots {
		pt.rank[x.item] = int32(i)
	}
	for t, tr := range d.Txns {
		w := int32(1)
		if mult != nil {
			w = mult[t]
			if w == 0 {
				continue
			}
		}
		buf := pt.buf[:0]
		for _, it := range tr {
			if ri := pt.rank[it]; ri >= 0 {
				buf = append(buf, ri)
			}
		}
		pt.buf = buf
		for a := 0; a+1 < len(buf); a++ {
			ia := int(buf[a])
			off := pt.base(ia) - ia - 1 // pair (ia, j) lives at off + j
			for _, jb := range buf[a+1:] {
				pt.counts[off+int(jb)] += w
			}
		}
	}
}

// vminer is one worker's reusable state for a vertical DFS mine: a scratch
// bitset pool, per-depth extension buffers, the growing prefix, and the
// output accumulators. Reset makes it reusable across mines (bootstrap
// replicates); a vminer is not safe for concurrent use. pairCount, when
// set, serves the support of the root pair (i, j) from a horizontally
// counted table instead of a bitset intersection.
type vminer struct {
	mult      []int32 // nil: unweighted (popcount); else per-tid weights
	minCount  int
	pool      *bitset.Pool
	pairCount func(i, j int) int
	levels    [][]vnode
	cur       Itemset
	its       []Itemset
	counts    []int
	// owned makes the output buffers the miner's own: reset truncates its
	// and counts instead of dropping them, and emit carves itemsets from
	// the items arena instead of allocating each one. Only a miner whose
	// every output dies before its next mine (a bootstrap view's) sets it.
	owned bool
	items []txn.Item
}

func newVminer(numTids int) *vminer {
	return &vminer{pool: bitset.NewPool(numTids)}
}

// reset prepares the miner for a new mine; buffers (pool, levels, prefix)
// carry over. Output accumulators start fresh (they escape into the
// returned FrequentSet) unless the miner owns its output.
func (m *vminer) reset(mult []int32, minCount int) {
	m.mult = mult
	m.minCount = minCount
	m.cur = m.cur[:0]
	if m.owned {
		m.its, m.counts, m.items = m.its[:0], m.counts[:0], m.items[:0]
	} else {
		m.its, m.counts = nil, nil
	}
}

// childBuf returns the reusable extension buffer of the given depth.
func (m *vminer) childBuf(depth int) []vnode {
	for len(m.levels) <= depth {
		m.levels = append(m.levels, nil)
	}
	return m.levels[depth][:0]
}

// tidCount returns the (weighted) support |a ∩ b|.
func (m *vminer) tidCount(a, b bitset.Set) int {
	if m.mult == nil {
		return bitset.AndCount(a, b)
	}
	return bitset.WeightAnd(a, b, m.mult)
}

// diffCount returns the (weighted) cardinality |a \ b|.
func (m *vminer) diffCount(a, b bitset.Set) int {
	if m.mult == nil {
		return bitset.AndNotCount(a, b)
	}
	return bitset.WeightAndNot(a, b, m.mult)
}

// emit records the current prefix with its support.
func (m *vminer) emit(count int) {
	var s Itemset
	if m.owned {
		// An arena regrowth leaves earlier itemsets in the old array, which
		// stays intact until a later mine truncates the arena.
		lo := len(m.items)
		m.items = append(m.items, m.cur...)
		s = m.items[lo:len(m.items):len(m.items)]
	} else {
		s = append(Itemset(nil), m.cur...)
	}
	m.its = append(m.its, s)
	m.counts = append(m.counts, count)
}

// buildChildren computes the frequent 1-extensions of the current prefix
// (node x) from its later siblings ys, into buf. The support is computed
// fused (no materialization); only frequent children materialize a set
// from the pool. diffMode says the siblings carry diffsets; toDiff says the
// children switch from tidsets to diffsets at this level.
func (m *vminer) buildChildren(x *vnode, ys []vnode, diffMode, toDiff bool, buf []vnode) []vnode {
	for j := range ys {
		y := &ys[j]
		var c int
		switch {
		case diffMode:
			c = x.count - m.diffCount(y.set, x.set)
		case toDiff:
			c = x.count - m.diffCount(x.set, y.set)
		default:
			c = m.tidCount(x.set, y.set)
		}
		if c < m.minCount {
			continue
		}
		var set bitset.Set
		switch {
		case diffMode:
			set = bitset.AndNotInto(m.pool.Get(), y.set, x.set)
		case toDiff:
			set = bitset.AndNotInto(m.pool.Get(), x.set, y.set)
		default:
			set = bitset.AndInto(m.pool.Get(), x.set, y.set)
		}
		buf = append(buf, vnode{item: y.item, set: set, count: c})
	}
	return buf
}

// extend explores, in DFS preorder, every frequent itemset extending the
// current prefix by items of exts (all of size len(cur)+1, sharing the
// prefix cur).
func (m *vminer) extend(exts []vnode, diffMode bool) {
	depth := len(m.cur) + 1
	for i := range exts {
		x := &exts[i]
		m.cur = append(m.cur, x.item)
		m.emit(x.count)
		if i+1 < len(exts) {
			toDiff := !diffMode && depth+1 >= diffsetLevel
			children := m.buildChildren(x, exts[i+1:], diffMode, toDiff, m.childBuf(depth))
			m.levels[depth] = children
			if len(children) > 0 {
				m.extend(children, diffMode || toDiff)
			}
			for k := range children {
				m.pool.Put(children[k].set)
			}
		}
		m.cur = m.cur[:len(m.cur)-1]
	}
}

// rootChildren computes root i's frequent 2-itemset extensions: supports
// come from the shared pair table (falling back to fused intersections
// when none was built), and only frequent pairs materialize a set.
func (m *vminer) rootChildren(roots []vnode, i int, toDiff bool, buf []vnode) []vnode {
	x := &roots[i]
	if m.pairCount == nil {
		return m.buildChildren(x, roots[i+1:], false, toDiff, buf)
	}
	for j := i + 1; j < len(roots); j++ {
		c := m.pairCount(i, j)
		if c < m.minCount {
			continue
		}
		y := &roots[j]
		var set bitset.Set
		if toDiff {
			set = bitset.AndNotInto(m.pool.Get(), x.set, y.set)
		} else {
			set = bitset.AndInto(m.pool.Get(), x.set, y.set)
		}
		buf = append(buf, vnode{item: y.item, set: set, count: c})
	}
	return buf
}

// mineRoots mines the subtrees of the frequent items roots[lo:hi],
// extending each against ALL later roots (so a parallel shard still sees
// every sibling). Root sets are borrowed from the index and never
// returned to the pool.
func (m *vminer) mineRoots(roots []vnode, lo, hi int) {
	for i := lo; i < hi; i++ {
		x := &roots[i]
		m.cur = append(m.cur[:0], x.item)
		m.emit(x.count)
		if i+1 < len(roots) {
			toDiff := diffsetLevel <= 2
			children := m.rootChildren(roots, i, toDiff, m.childBuf(1))
			m.levels[1] = children
			if len(children) > 0 {
				m.extend(children, toDiff)
			}
			for k := range children {
				m.pool.Put(children[k].set)
			}
		}
	}
}

// rootNodes collects the frequent items as root extensions of the empty
// prefix, borrowing the index's per-item bitsets.
func rootNodes(ix *VerticalIndex, itemCounts []int, minCount int, buf []vnode) []vnode {
	for it, c := range itemCounts {
		if c >= minCount {
			buf = append(buf, vnode{item: txn.Item(it), set: ix.items[it], count: c})
		}
	}
	return buf
}

// minCountFor converts a fractional support threshold into the absolute
// count threshold shared by every miner (at least 1).
func minCountFor(minSupport float64, n int) int {
	minCount := int(minSupport*float64(n) + 0.999999)
	if minCount < 1 {
		minCount = 1
	}
	return minCount
}

// MineVertical mines d through the vertical engine regardless of the auto
// decision — bit-identical to Mine/MineWith on any backend.
func MineVertical(d *txn.Dataset, minSupport float64, parallelism int) (*FrequentSet, error) {
	return NewEngine(d, parallelism, CounterBitmap).Mine(minSupport)
}

// mineVertical runs the Eclat/dEclat DFS over an index. itemCounts are the
// (weighted) pass-1 supports and n the (weighted) transaction total; mult
// nil mines the indexed dataset itself, non-nil mines a multiplicity-
// weighted view of it. Frequent-item subtrees are sharded across workers;
// per-shard outputs concatenate in shard order, which is DFS preorder ==
// lexicographic order, so results are identical for every worker count.
func mineVertical(d *txn.Dataset, ix *VerticalIndex, mult []int32, itemCounts []int, n int, minSupport float64, parallelism int) (*FrequentSet, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, minSupportError(minSupport)
	}
	out := &FrequentSet{MinSupport: minSupport, N: n}
	if n == 0 {
		return out, nil
	}
	minCount := minCountFor(minSupport, n)
	roots := rootNodes(ix, itemCounts, minCount, nil)
	if len(roots) == 0 {
		return out, nil
	}
	pairs := &pairTable{}
	pairs.countPairs(d, mult, roots)
	workers := parallel.Workers(parallelism)
	if workers > len(roots) {
		workers = len(roots)
	}
	if workers == 1 {
		m := newVminer(ix.n)
		m.reset(mult, minCount)
		m.pairCount = pairs.at
		m.mineRoots(roots, 0, len(roots))
		out.Itemsets, out.Counts = m.its, m.counts
		return out, nil
	}
	chunks := parallel.Chunks(len(roots), workers)
	miners := make([]*vminer, len(chunks))
	parallel.Do(len(chunks), len(chunks), func(shard int, _ parallel.Chunk) {
		m := newVminer(ix.n)
		m.reset(mult, minCount)
		m.pairCount = pairs.at // read-only during mining, safe to share
		m.mineRoots(roots, chunks[shard].Lo, chunks[shard].Hi)
		miners[shard] = m
	})
	total := 0
	for _, m := range miners {
		total += len(m.its)
	}
	out.Itemsets = make([]Itemset, 0, total)
	out.Counts = make([]int, 0, total)
	for _, m := range miners {
		out.Itemsets = append(out.Itemsets, m.its...)
		out.Counts = append(out.Counts, m.counts...)
	}
	return out, nil
}
