package core

import (
	"sort"

	"focus/internal/apriori"
	"focus/internal/txn"
)

// LitsModel is a lits-model (Section 2.2): the structural component is the
// set of frequent itemsets (each identifying the region of transactions
// containing it), and the measure component is their supports. The
// refinement relation is the superset relation on itemset collections
// (Section 4.1), under which structural components form a meet-semilattice
// whose greatest lower bound is the set union.
type LitsModel struct {
	// FS holds the frequent itemsets with their absolute support counts.
	FS *apriori.FrequentSet
}

// MineLits induces the lits-model of d at the given minimum support.
func MineLits(d *txn.Dataset, minSupport float64) (*LitsModel, error) {
	return MineLitsP(d, minSupport, 1)
}

// MineLitsP is MineLits with a parallelism knob (0 = the process default,
// 1 = the exact serial path): Apriori's per-pass support counting is
// sharded across workers with a deterministic shard-order merge, so the
// model is bit-identical to the serial miner for every worker count.
func MineLitsP(d *txn.Dataset, minSupport float64, parallelism int) (*LitsModel, error) {
	return MineLitsWith(d, minSupport, parallelism, apriori.CounterDefault)
}

// MineLitsWith is MineLitsP with an explicit itemset-counting backend
// (trie subset scan or vertical TID-bitmap); the model is bit-identical for
// every Counter.
func MineLitsWith(d *txn.Dataset, minSupport float64, parallelism int, counter apriori.Counter) (*LitsModel, error) {
	fs, err := apriori.MineWith(d, minSupport, parallelism, counter)
	if err != nil {
		return nil, err
	}
	return &LitsModel{FS: fs}, nil
}

// MinSupport returns the model's mining threshold.
func (m *LitsModel) MinSupport() float64 { return m.FS.MinSupport }

// N returns the size of the inducing dataset.
func (m *LitsModel) N() int { return m.FS.N }

// Len returns the number of regions (frequent itemsets) in the structural
// component.
func (m *LitsModel) Len() int { return m.FS.Len() }

// GCRItemsets returns the structural component of the greatest common
// refinement of two lits-models: the union of their frequent itemsets
// (Section 2.2), in lexicographic order.
func GCRItemsets(m1, m2 *LitsModel) []apriori.Itemset {
	seen := make(map[string]bool, m1.Len()+m2.Len())
	out := make([]apriori.Itemset, 0, m1.Len()+m2.Len())
	for _, src := range [2]*LitsModel{m1, m2} {
		for _, s := range src.FS.Itemsets {
			k := s.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// LitsDeviationOverRefinement computes delta_1(f,g) over an arbitrary common
// refinement given as an explicit itemset collection, used to verify
// Theorem 4.1 (the GCR yields the least deviation over all common
// refinements).
func LitsDeviationOverRefinement(refinement []apriori.Itemset, d1, d2 *txn.Dataset, f DiffFunc, g AggFunc) float64 {
	c1 := apriori.CountItemsets(d1, refinement)
	c2 := apriori.CountItemsets(d2, refinement)
	regions := make([]MeasuredRegion, len(refinement))
	for i := range refinement {
		regions[i] = MeasuredRegion{Alpha1: float64(c1[i]), Alpha2: float64(c2[i])}
	}
	return Deviation1(regions, float64(d1.Len()), float64(d2.Len()), f, g)
}

// LitsUpperBound computes delta*(g) of Definition 4.1 / Theorem 4.2: an
// upper bound on delta(f_a, g) obtained from the two models alone, without
// scanning either dataset. An itemset frequent in only one model has its
// unknown support in the other dataset (known to be below the minimum
// support) replaced by zero, which can only increase the absolute
// difference. delta* satisfies the triangle inequality, making it usable as
// a metric for embedding dataset collections (Section 4.1.1).
func LitsUpperBound(m1, m2 *LitsModel, g AggFunc) float64 {
	gcr := GCRItemsets(m1, m2)
	n1, n2 := float64(m1.N()), float64(m2.N())
	diffs := make([]float64, len(gcr))
	for i, s := range gcr {
		i1 := m1.FS.Lookup(s)
		i2 := m2.FS.Lookup(s)
		var a1, a2 float64
		if i1 >= 0 {
			a1 = float64(m1.FS.Counts[i1])
		}
		if i2 >= 0 {
			a2 = float64(m2.FS.Counts[i2])
		}
		diffs[i] = AbsoluteDiff(a1, a2, n1, n2)
	}
	return g(diffs)
}
