package core

import (
	"math"
	"math/rand"
	"testing"

	"focus/internal/apriori"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/region"
	"focus/internal/txn"
)

// This file holds the property-based verification of the paper's theorems on
// randomized inputs (Section headers reference the paper).

func randomTxnDataset(rng *rand.Rand, n, items, maxLen int) *txn.Dataset {
	d := txn.New(items)
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(maxLen)
		tr := make(txn.Transaction, 0, l)
		for j := 0; j < l; j++ {
			tr = append(tr, txn.Item(rng.Intn(items)))
		}
		d.Add(tr.Normalize())
	}
	return d
}

// skewedTxnDataset biases item frequencies so that models are non-trivial.
func skewedTxnDataset(rng *rand.Rand, n, items, maxLen int) *txn.Dataset {
	d := txn.New(items)
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(maxLen)
		tr := make(txn.Transaction, 0, l)
		for j := 0; j < l; j++ {
			// Zipf-ish: favor small item ids.
			it := int(float64(items) * math.Pow(rng.Float64(), 2))
			if it >= items {
				it = items - 1
			}
			tr = append(tr, txn.Item(it))
		}
		d.Add(tr.Normalize())
	}
	return d
}

// Identity: the deviation of a dataset against itself is zero for both f_a
// and f_s and both aggregates (lits-models).
func TestLitsSelfDeviationZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		d := skewedTxnDataset(rng, 150, 12, 6)
		m, err := MineLits(d, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []DiffFunc{AbsoluteDiff, ScaledDiff} {
			for _, g := range []AggFunc{Sum, Max} {
				dev, err := Deviation(Lits(0.1), m, m, d, d, f, g)
				if err != nil {
					t.Fatal(err)
				}
				if dev != 0 {
					t.Errorf("trial %d: self-deviation = %v, want 0", trial, dev)
				}
			}
		}
	}
}

// Symmetry: delta(f_a,g)(M1,M2 | D1,D2) = delta(f_a,g)(M2,M1 | D2,D1).
func TestLitsDeviationSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		d1 := skewedTxnDataset(rng, 120, 10, 5)
		d2 := skewedTxnDataset(rng, 140, 10, 5)
		m1, _ := MineLits(d1, 0.1)
		m2, _ := MineLits(d2, 0.1)
		for _, g := range []AggFunc{Sum, Max} {
			a, err := Deviation(Lits(0.1), m1, m2, d1, d2, AbsoluteDiff, g)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Deviation(Lits(0.1), m2, m1, d2, d1, AbsoluteDiff, g)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(a-b) > 1e-12 {
				t.Errorf("trial %d: asymmetric deviation %v vs %v", trial, a, b)
			}
		}
	}
}

// Theorem 4.1: for lits-models the GCR yields the least deviation over all
// common refinements. A common refinement of two lits structural components
// is any superset of their union; we extend the GCR with random extra
// itemsets and check the deviation never decreases.
func TestTheorem41GCRLeastDeviationLits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		d1 := skewedTxnDataset(rng, 100, 10, 5)
		d2 := skewedTxnDataset(rng, 100, 10, 5)
		m1, _ := MineLits(d1, 0.15)
		m2, _ := MineLits(d2, 0.15)
		gcr := GCRItemsets(m1, m2)

		refinement := append([]apriori.Itemset(nil), gcr...)
		for i := 0; i < 5; i++ {
			l := 1 + rng.Intn(3)
			var s apriori.Itemset
			for j := 0; j < l; j++ {
				s = append(s, txn.Item(rng.Intn(10)))
			}
			refinement = append(refinement, apriori.NewItemset(s...))
		}

		for _, f := range []DiffFunc{AbsoluteDiff, ScaledDiff} {
			for _, g := range []AggFunc{Sum, Max} {
				viaGCR, err := Deviation(Lits(0.15), m1, m2, d1, d2, f, g)
				if err != nil {
					t.Fatal(err)
				}
				viaRefinement := LitsDeviationOverRefinement(refinement, d1, d2, f, g)
				if viaGCR > viaRefinement+1e-12 {
					t.Errorf("trial %d: GCR deviation %v > refinement deviation %v", trial, viaGCR, viaRefinement)
				}
			}
		}
	}
}

// Theorem 4.2(1): delta*(g) >= delta(f_a,g).
func TestTheorem42UpperBoundDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		d1 := skewedTxnDataset(rng, 150, 10, 6)
		d2 := skewedTxnDataset(rng, 120, 10, 6)
		m1, _ := MineLits(d1, 0.12)
		m2, _ := MineLits(d2, 0.12)
		for _, g := range []AggFunc{Sum, Max} {
			dev, err := Deviation(Lits(0.12), m1, m2, d1, d2, AbsoluteDiff, g)
			if err != nil {
				t.Fatal(err)
			}
			bound := LitsUpperBound(m1, m2, g)
			if bound < dev-1e-12 {
				t.Errorf("trial %d: delta* %v < delta %v", trial, bound, dev)
			}
		}
	}
}

// Theorem 4.2(2): delta*(g) satisfies the triangle inequality.
func TestTheorem42TriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		ds := make([]*txn.Dataset, 3)
		ms := make([]*LitsModel, 3)
		for i := range ds {
			ds[i] = skewedTxnDataset(rng, 100+20*i, 10, 5)
			m, err := MineLits(ds[i], 0.12)
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = m
		}
		for _, g := range []AggFunc{Sum, Max} {
			d01 := LitsUpperBound(ms[0], ms[1], g)
			d12 := LitsUpperBound(ms[1], ms[2], g)
			d02 := LitsUpperBound(ms[0], ms[2], g)
			if d02 > d01+d12+1e-12 {
				t.Errorf("trial %d: triangle violated: %v > %v + %v", trial, d02, d01, d12)
			}
		}
	}
}

// delta* is symmetric (it is an L1/Linf distance on truncated support
// vectors).
func TestUpperBoundSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d1 := skewedTxnDataset(rng, 100, 8, 5)
	d2 := skewedTxnDataset(rng, 100, 8, 5)
	m1, _ := MineLits(d1, 0.15)
	m2, _ := MineLits(d2, 0.15)
	for _, g := range []AggFunc{Sum, Max} {
		if a, b := LitsUpperBound(m1, m2, g), LitsUpperBound(m2, m1, g); math.Abs(a-b) > 1e-12 {
			t.Errorf("delta* asymmetric: %v vs %v", a, b)
		}
	}
}

// Focussed monotonicity for lits: a larger itemset-predicate focus can only
// increase delta(f,g) for g in {Sum, Max}, since regions are only added.
func TestLitsFocusMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d1 := skewedTxnDataset(rng, 150, 10, 6)
	d2 := skewedTxnDataset(rng, 150, 10, 6)
	m1, _ := MineLits(d1, 0.1)
	m2, _ := MineLits(d2, 0.1)
	narrow := WithFocusItemsets(func(s apriori.Itemset) bool { return len(s) >= 2 })
	wide := WithFocusItemsets(func(s apriori.Itemset) bool { return true })
	for _, f := range []DiffFunc{AbsoluteDiff, ScaledDiff} {
		for _, g := range []AggFunc{Sum, Max} {
			dn, err := Deviation(Lits(0.1), m1, m2, d1, d2, f, g, narrow)
			if err != nil {
				t.Fatal(err)
			}
			dw, err := Deviation(Lits(0.1), m1, m2, d1, d2, f, g, wide)
			if err != nil {
				t.Fatal(err)
			}
			if dn > dw+1e-12 {
				t.Errorf("narrow focus deviation %v > wide %v", dn, dw)
			}
		}
	}
}

// ---- dt-model properties ----

func dtTestSchema() *dataset.Schema {
	return dataset.NewClassSchema(2,
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "class", Kind: dataset.Categorical, Values: []string{"0", "1"}},
	)
}

// randomDTDataset labels points by a random axis-aligned rule plus noise.
func randomDTDataset(rng *rand.Rand, n int) *dataset.Dataset {
	d := dataset.New(dtTestSchema())
	tx, ty := rng.Float64(), rng.Float64()
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		cls := 0.0
		if (x > tx) != (y > ty) {
			cls = 1
		}
		if rng.Float64() < 0.1 {
			cls = 1 - cls
		}
		d.Add(dataset.Tuple{x, y, cls})
	}
	return d
}

func TestDTSelfDeviationZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := randomDTDataset(rng, 500)
	cfg := dtree.Config{MaxDepth: 5, MinLeaf: 20}
	m, err := BuildDTModel(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []DiffFunc{AbsoluteDiff, ScaledDiff} {
		for _, g := range []AggFunc{Sum, Max} {
			dev, err := Deviation(DT(cfg), m, m, d, d, f, g)
			if err != nil {
				t.Fatal(err)
			}
			if dev != 0 {
				t.Errorf("self deviation = %v, want 0", dev)
			}
		}
	}
}

func TestDTDeviationSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d1 := randomDTDataset(rng, 400)
	d2 := randomDTDataset(rng, 450)
	cfg := dtree.Config{MaxDepth: 4, MinLeaf: 20}
	m1, _ := BuildDTModel(d1, cfg)
	m2, _ := BuildDTModel(d2, cfg)
	for _, g := range []AggFunc{Sum, Max} {
		a, err := Deviation(DT(cfg), m1, m2, d1, d2, AbsoluteDiff, g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Deviation(DT(cfg), m2, m1, d2, d1, AbsoluteDiff, g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("asymmetric dt deviation: %v vs %v", a, b)
		}
	}
}

// Theorem 4.3: for g=sum, the GCR yields the least deviation among common
// refinements. We refine the GCR further by splitting every region at the
// midpoint of its x-range and verify the deviation does not decrease.
func TestTheorem43GCRLeastDeviationDT(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 5; trial++ {
		d1 := randomDTDataset(rng, 300)
		d2 := randomDTDataset(rng, 300)
		m1, _ := BuildDTModel(d1, dtree.Config{MaxDepth: 3, MinLeaf: 20})
		m2, _ := BuildDTModel(d2, dtree.Config{MaxDepth: 3, MinLeaf: 20})
		gcr, err := DTGCRRegions(m1, m2)
		if err != nil {
			t.Fatal(err)
		}
		// Build explicit class-constrained boxes for the GCR and a finer
		// common refinement.
		var gcrBoxes, fineBoxes []*region.Box
		for _, r := range gcr {
			b := r.Box.ConstrainClass(r.Class)
			gcrBoxes = append(gcrBoxes, b)
			lo, hi := b.Lo[0], b.Hi[0]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = 1
			}
			mid := (lo + hi) / 2
			left := b.ConstrainUpper(0, mid)
			right := b.ConstrainLower(0, mid)
			fineBoxes = append(fineBoxes, left, right)
		}
		for _, f := range []DiffFunc{AbsoluteDiff, ScaledDiff} {
			viaGCR := DTDeviationOverRegions(gcrBoxes, d1, d2, f, Sum)
			viaFine := DTDeviationOverRegions(fineBoxes, d1, d2, f, Sum)
			if viaGCR > viaFine+1e-9 {
				t.Errorf("trial %d: GCR deviation %v > refined %v", trial, viaGCR, viaFine)
			}
		}
	}
}

// The routed deviation (Deviation through DT) agrees with the geometric region-based
// computation (DTDeviationOverRegions on class-constrained GCR boxes) — the
// ablation pair of DESIGN.md.
func TestDTRoutingMatchesGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		d1 := randomDTDataset(rng, 300)
		d2 := randomDTDataset(rng, 350)
		cfg := dtree.Config{MaxDepth: 4, MinLeaf: 15}
		m1, _ := BuildDTModel(d1, cfg)
		m2, _ := BuildDTModel(d2, cfg)
		gcr, err := DTGCRRegions(m1, m2)
		if err != nil {
			t.Fatal(err)
		}
		boxes := make([]*region.Box, len(gcr))
		for i, r := range gcr {
			boxes[i] = r.Box.ConstrainClass(r.Class)
		}
		for _, g := range []AggFunc{Sum, Max} {
			routed, err := Deviation(DT(cfg), m1, m2, d1, d2, AbsoluteDiff, g)
			if err != nil {
				t.Fatal(err)
			}
			geometric := DTDeviationOverRegions(boxes, d1, d2, AbsoluteDiff, g)
			if math.Abs(routed-geometric) > 1e-9 {
				t.Errorf("trial %d: routed %v != geometric %v", trial, routed, geometric)
			}
		}
	}
}

// Class-focussed deviations are monotone: focusing on one class gives at
// most the unfocussed deviation (class regions never straddle a class-focus
// boundary), and the two class-focussed deviations sum to the whole for
// g=sum.
func TestDTClassFocusDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d1 := randomDTDataset(rng, 400)
	d2 := randomDTDataset(rng, 400)
	cfg := dtree.Config{MaxDepth: 4, MinLeaf: 20}
	m1, _ := BuildDTModel(d1, cfg)
	m2, _ := BuildDTModel(d2, cfg)
	s := dtTestSchema()
	full, err := Deviation(DT(cfg), m1, m2, d1, d2, AbsoluteDiff, Sum)
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := Deviation(DT(cfg), m1, m2, d1, d2, AbsoluteDiff, Sum, WithFocus(region.Full(s).ConstrainClass(0)))
	c1, _ := Deviation(DT(cfg), m1, m2, d1, d2, AbsoluteDiff, Sum, WithFocus(region.Full(s).ConstrainClass(1)))
	if c0 > full+1e-12 || c1 > full+1e-12 {
		t.Errorf("class focus exceeds full deviation: %v,%v vs %v", c0, c1, full)
	}
	if math.Abs(c0+c1-full) > 1e-9 {
		t.Errorf("class decomposition %v + %v != %v", c0, c1, full)
	}
}

// Focussed monotonicity with GCR-aligned focus boundaries (the regime in
// which the paper's monotonicity claim holds): focusing on a tree-split
// boundary keeps every GCR region on one side.
func TestDTFocusMonotoneOnAlignedBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d1 := randomDTDataset(rng, 400)
	d2 := randomDTDataset(rng, 400)
	cfg := dtree.Config{MaxDepth: 3, MinLeaf: 20}
	m1, _ := BuildDTModel(d1, cfg)
	m2, _ := BuildDTModel(d2, cfg)
	s := dtTestSchema()
	// The root split threshold of m1 is a boundary of every GCR region.
	if m1.Tree.Root.IsLeaf() {
		t.Skip("degenerate tree")
	}
	thr := m1.Tree.Root.Threshold
	attr := m1.Tree.Root.Attr
	narrow := region.Full(s).ConstrainUpper(attr, thr)
	for _, g := range []AggFunc{Sum, Max} {
		dn, err := Deviation(DT(cfg), m1, m2, d1, d2, AbsoluteDiff, g, WithFocus(narrow))
		if err != nil {
			t.Fatal(err)
		}
		dw, err := Deviation(DT(cfg), m1, m2, d1, d2, AbsoluteDiff, g)
		if err != nil {
			t.Fatal(err)
		}
		if dn > dw+1e-12 {
			t.Errorf("aligned focus deviation %v > full %v", dn, dw)
		}
	}
}

func TestDTDeviationSchemaMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d1 := randomDTDataset(rng, 200)
	m1, _ := BuildDTModel(d1, dtree.Config{MaxDepth: 3, MinLeaf: 20})
	other := dataset.NewClassSchema(1,
		dataset.Attribute{Name: "z", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "class", Kind: dataset.Categorical, Values: []string{"0", "1"}},
	)
	d2 := dataset.FromTuples(other, []dataset.Tuple{{0.5, 0}})
	m2, _ := BuildDTModel(d2, dtree.Config{MaxDepth: 2, MinLeaf: 1})
	if _, err := Deviation(DT(dtree.Config{MaxDepth: 3, MinLeaf: 20}), m1, m2, d1, d2, AbsoluteDiff, Sum); err == nil {
		t.Error("cross-schema dt deviation succeeded")
	}
	if _, err := DTGCRRegions(m1, m2); err == nil {
		t.Error("cross-schema GCR succeeded")
	}
}

// GCR region selectivities reconstruct each model's leaf selectivities
// (Definition 3.4: the GCR refines both structural components).
func TestGCRRefinesBothModels(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d1 := randomDTDataset(rng, 400)
	d2 := randomDTDataset(rng, 400)
	m1, _ := BuildDTModel(d1, dtree.Config{MaxDepth: 4, MinLeaf: 20})
	m2, _ := BuildDTModel(d2, dtree.Config{MaxDepth: 4, MinLeaf: 20})
	gcr, err := DTGCRRegions(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	probe := randomDTDataset(rng, 500) // an arbitrary dataset, per Def 3.4
	k := m1.Tree.NumClasses()

	// Sum the probe's GCR-region selectivities grouped by m1's leaf, and
	// compare against the leaf region's own selectivity.
	sums := make(map[[2]int]float64) // (leaf1, class) -> selectivity sum
	for _, r := range gcr {
		b := r.Box.ConstrainClass(r.Class)
		sums[[2]int{r.Leaf1, r.Class}] += probe.Selectivity(b.Contains)
	}
	for _, lf := range m1.Tree.Leaves() {
		for c := 0; c < k; c++ {
			direct := probe.Selectivity(lf.Box.ConstrainClass(c).Contains)
			if math.Abs(direct-sums[[2]int{lf.ID, c}]) > 1e-9 {
				t.Fatalf("leaf %d class %d: selectivity %v != GCR sum %v", lf.ID, c, direct, sums[[2]int{lf.ID, c}])
			}
		}
	}
}
