package core

import (
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
// 1 = the exact serial path): mining is sharded across workers with a
// deterministic shard-order merge, so the model is bit-identical to the
// serial miner for every worker count.
func MineLitsP(d *txn.Dataset, minSupport float64, parallelism int) (*LitsModel, error) {
	fs, err := apriori.MineP(d, minSupport, parallelism)
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
	gcr, _, _ := mergeGCR(m1.FS, m2.FS)
	return gcr
}

// mergeGCR unions two frequent sets by a linear merge of their itemset
// lists, which every miner emits in strict lexicographic order. gcr is the
// union in that order; in1[i] and in2[i] are gcr[i]'s positions in fs1 and
// fs2, or -1 when it is not frequent on that side.
func mergeGCR(fs1, fs2 *apriori.FrequentSet) (gcr []apriori.Itemset, in1, in2 []int) {
	a, b := fs1.Itemsets, fs2.Itemsets
	n := len(a) + len(b)
	gcr = make([]apriori.Itemset, 0, n)
	in1 = make([]int, 0, n)
	in2 = make([]int, 0, n)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i].Less(b[j]):
			gcr, in1, in2 = append(gcr, a[i]), append(in1, i), append(in2, -1)
			i++
		case i == len(a) || b[j].Less(a[i]):
			gcr, in1, in2 = append(gcr, b[j]), append(in1, -1), append(in2, j)
			j++
		default:
			gcr, in1, in2 = append(gcr, a[i]), append(in1, i), append(in2, j)
			i++
			j++
		}
	}
	return gcr, in1, in2
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
	gcr, in1, in2 := mergeGCR(m1.FS, m2.FS)
	n1, n2 := float64(m1.N()), float64(m2.N())
	diffs := make([]float64, len(gcr))
	for i := range gcr {
		var a1, a2 float64
		if in1[i] >= 0 {
			a1 = float64(m1.FS.Counts[in1[i]])
		}
		if in2[i] >= 0 {
			a2 = float64(m2.FS.Counts[in2[i]])
		}
		diffs[i] = AbsoluteDiff(a1, a2, n1, n2)
	}
	return g(diffs)
}
