package core

import (
	"math"
	"testing"

	"focus/internal/apriori"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/region"
	"focus/internal/txn"
)

// This file reproduces the paper's worked examples exactly:
//
//   - Section 2.2 / Figure 6: the lits-models L1, L2 and their GCR L3, with
//     delta(f_a, g_sum) and delta(f_a, g_max);
//   - Section 2.1 / Figure 5: the dt-models T1, T2 and their GCR T3, with the
//     class-C1 deviation 0.175 and the focussed deviation 0.08 over age<=30.
//
// Note on Figure 6's total: the paper prints the deviation as 1.125, but its
// own summands |0.5-0.1|+|0.4-0.3|+|0.1-0.5|+|0.25-0.05|+|0.05-0.2| add to
// 1.25 (also restated as 0.4+0.1+0.4+0.2+0.15 in Section 4.1, again printed
// as 1.125). We assert the value implied by Definition 3.5, 1.25.

const (
	itemA = txn.Item(0)
	itemB = txn.Item(1)
	itemC = txn.Item(2)
)

// figure6D1 has supports a=0.5, b=0.4, c=0.1, ab=0.25, bc=0.05 over 20
// transactions.
func figure6D1() *txn.Dataset {
	d := txn.New(3)
	for i := 0; i < 5; i++ {
		d.Add(txn.Transaction{itemA, itemB})
	}
	d.Add(txn.Transaction{itemB, itemC})
	for i := 0; i < 2; i++ {
		d.Add(txn.Transaction{itemB})
	}
	for i := 0; i < 5; i++ {
		d.Add(txn.Transaction{itemA})
	}
	d.Add(txn.Transaction{itemC})
	for i := 0; i < 6; i++ {
		d.Add(txn.Transaction{})
	}
	return d
}

// figure6D2 has supports a=0.1, b=0.3, c=0.5, ab=0.05, bc=0.2 over 20
// transactions.
func figure6D2() *txn.Dataset {
	d := txn.New(3)
	d.Add(txn.Transaction{itemA, itemB})
	for i := 0; i < 4; i++ {
		d.Add(txn.Transaction{itemB, itemC})
	}
	d.Add(txn.Transaction{itemB})
	d.Add(txn.Transaction{itemA})
	for i := 0; i < 6; i++ {
		d.Add(txn.Transaction{itemC})
	}
	for i := 0; i < 7; i++ {
		d.Add(txn.Transaction{})
	}
	return d
}

func TestFigure6Supports(t *testing.T) {
	d1, d2 := figure6D1(), figure6D2()
	check := func(d *txn.Dataset, set []txn.Item, want float64) {
		t.Helper()
		if got := d.Support(set); math.Abs(got-want) > 1e-12 {
			t.Errorf("support(%v) = %v, want %v", set, got, want)
		}
	}
	check(d1, []txn.Item{itemA}, 0.5)
	check(d1, []txn.Item{itemB}, 0.4)
	check(d1, []txn.Item{itemC}, 0.1)
	check(d1, []txn.Item{itemA, itemB}, 0.25)
	check(d1, []txn.Item{itemB, itemC}, 0.05)
	check(d2, []txn.Item{itemA}, 0.1)
	check(d2, []txn.Item{itemB}, 0.3)
	check(d2, []txn.Item{itemC}, 0.5)
	check(d2, []txn.Item{itemA, itemB}, 0.05)
	check(d2, []txn.Item{itemB, itemC}, 0.2)
}

func TestFigure6StructuralComponents(t *testing.T) {
	d1, d2 := figure6D1(), figure6D2()
	m1, err := MineLits(d1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MineLits(d2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// L1 = {a, b, ab}; L2 = {b, c, bc} — exactly Figure 6.
	wantL1 := []apriori.Itemset{{itemA}, {itemA, itemB}, {itemB}}
	wantL2 := []apriori.Itemset{{itemB}, {itemB, itemC}, {itemC}}
	if m1.Len() != 3 || m2.Len() != 3 {
		t.Fatalf("|L1|=%d |L2|=%d, want 3 and 3 (%v, %v)", m1.Len(), m2.Len(), m1.FS.Itemsets, m2.FS.Itemsets)
	}
	for i, want := range wantL1 {
		if !m1.FS.Itemsets[i].Equal(want) {
			t.Errorf("L1[%d] = %v, want %v", i, m1.FS.Itemsets[i], want)
		}
	}
	for i, want := range wantL2 {
		if !m2.FS.Itemsets[i].Equal(want) {
			t.Errorf("L2[%d] = %v, want %v", i, m2.FS.Itemsets[i], want)
		}
	}
	// GCR = union, 5 itemsets.
	gcr := GCRItemsets(m1, m2)
	if len(gcr) != 5 {
		t.Fatalf("|GCR| = %d, want 5", len(gcr))
	}
}

func TestFigure6Deviation(t *testing.T) {
	d1, d2 := figure6D1(), figure6D2()
	m1, _ := MineLits(d1, 0.2)
	m2, _ := MineLits(d2, 0.2)

	sum, err := Deviation(Lits(0.2), m1, m2, d1, d2, AbsoluteDiff, Sum)
	if err != nil {
		t.Fatal(err)
	}
	// |0.5-0.1| + |0.4-0.3| + |0.1-0.5| + |0.25-0.05| + |0.05-0.2| = 1.25
	// (printed as 1.125 in the paper; see the file comment).
	if math.Abs(sum-1.25) > 1e-12 {
		t.Errorf("delta(f_a,g_sum) = %v, want 1.25", sum)
	}

	max, err := Deviation(Lits(0.2), m1, m2, d1, d2, AbsoluteDiff, Max)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: delta(f_a,g_max)(L1,L2) = 0.4.
	if math.Abs(max-0.4) > 1e-12 {
		t.Errorf("delta(f_a,g_max) = %v, want 0.4", max)
	}
}

func TestFigure6UpperBound(t *testing.T) {
	d1, d2 := figure6D1(), figure6D2()
	m1, _ := MineLits(d1, 0.2)
	m2, _ := MineLits(d2, 0.2)

	// delta* replaces unknown (infrequent) supports by 0:
	// a: only in L1 -> 0.5; b: both -> 0.1; c: only in L2 -> 0.5;
	// ab: only in L1 -> 0.25; bc: only in L2 -> 0.2. Sum = 1.55, Max = 0.5.
	gotSum := LitsUpperBound(m1, m2, Sum)
	if math.Abs(gotSum-1.55) > 1e-12 {
		t.Errorf("delta*(g_sum) = %v, want 1.55", gotSum)
	}
	gotMax := LitsUpperBound(m1, m2, Max)
	if math.Abs(gotMax-0.5) > 1e-12 {
		t.Errorf("delta*(g_max) = %v, want 0.5", gotMax)
	}
	// Theorem 4.2(1): the bound dominates the true deviation.
	devSum, _ := Deviation(Lits(0.2), m1, m2, d1, d2, AbsoluteDiff, Sum)
	devMax, _ := Deviation(Lits(0.2), m1, m2, d1, d2, AbsoluteDiff, Max)
	if gotSum < devSum || gotMax < devMax {
		t.Errorf("upper bound below deviation: sum %v<%v or max %v<%v", gotSum, devSum, gotMax, devMax)
	}
}

// figure5Schema: age in [0,100], salary in [0,200000], two classes.
func figure5Schema() *dataset.Schema {
	return dataset.NewClassSchema(2,
		dataset.Attribute{Name: "age", Kind: dataset.Numeric, Min: 0, Max: 100},
		dataset.Attribute{Name: "salary", Kind: dataset.Numeric, Min: 0, Max: 200000},
		dataset.Attribute{Name: "class", Kind: dataset.Categorical, Values: []string{"C1", "C2"}},
	)
}

// figure5T1 is the decision tree of Figure 1: Age <= 30, then Salary <=
// 100K. Leaf class histograms reflect D1's measures over 200 tuples.
func figure5T1(t *testing.T) *dtree.Tree {
	t.Helper()
	root := &dtree.Node{
		Attr: 0, Threshold: 30, // age <= 30
		Left: &dtree.Node{
			Attr: 1, Threshold: 100000, // salary <= 100K
			Left:  &dtree.Node{ClassCounts: []int{0, 60}}, // leaf (1): <0.0, 0.3>
			Right: &dtree.Node{ClassCounts: []int{20, 0}}, // leaf (2): <0.1, 0.0>
		},
		Right: &dtree.Node{ClassCounts: []int{1, 119}}, // leaf (3): <0.005, 0.55+>
	}
	tree, err := dtree.NewTree(figure5Schema(), root)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// figure5T2 is the tree induced by D2: Age <= 50, then Salary <= 80K.
func figure5T2(t *testing.T) *dtree.Tree {
	t.Helper()
	root := &dtree.Node{
		Attr: 0, Threshold: 50, // age <= 50
		Left: &dtree.Node{
			Attr: 1, Threshold: 80000, // salary <= 80K
			Left:  &dtree.Node{ClassCounts: []int{0, 20}},  // <0.0, 0.1>
			Right: &dtree.Node{ClassCounts: []int{36, 20}}, // <0.18, 0.1>
		},
		Right: &dtree.Node{ClassCounts: []int{20, 104}}, // <0.1, 0.52>
	}
	tree, err := dtree.NewTree(figure5Schema(), root)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// figure5D1 realizes the C1 measures of Figure 5's GCR for D1 over N=200:
// 0.1 at (age<=30, salary>100K), 0.005 at (age>50), 0 elsewhere. The
// figure's measures total 0.955; the remaining 0.045 is placed in a C2
// region (30<age<=50, salary<=80K), which no C1-focussed computation sees.
func figure5D1() *dataset.Dataset {
	d := dataset.New(figure5Schema())
	add := func(n int, age, salary, class float64) {
		for i := 0; i < n; i++ {
			d.Add(dataset.Tuple{age, salary, class})
		}
	}
	add(20, 25, 150000, 0) // C1: age<=30, salary>100K: 0.1
	add(1, 60, 50000, 0)   // C1: age>50: 0.005
	add(60, 25, 50000, 1)  // C2: leaf (1) of T1: 0.3
	add(110, 60, 50000, 1) // C2: age>50: 0.55
	add(9, 40, 50000, 1)   // C2: filler for mass conservation
	return d
}

// figure5D2 realizes the C1 measures of Figure 5's GCR for D2 over N=200:
// 0.04 at (age<=30, 80K<salary<=100K), 0.14 at (age<=30, salary>100K), 0.1
// at (age>50); C2 measures follow T2's leaves exactly (they sum to 1).
func figure5D2() *dataset.Dataset {
	d := dataset.New(figure5Schema())
	add := func(n int, age, salary, class float64) {
		for i := 0; i < n; i++ {
			d.Add(dataset.Tuple{age, salary, class})
		}
	}
	add(8, 25, 90000, 0)   // C1: age<=30, 80K<salary<=100K: 0.04
	add(28, 25, 150000, 0) // C1: age<=30, salary>100K: 0.14
	add(20, 60, 50000, 0)  // C1: age>50: 0.1
	add(20, 25, 50000, 1)  // C2: age<=50, salary<=80K: 0.1
	add(20, 25, 90000, 1)  // C2: age<=50, salary>80K: 0.1
	add(104, 60, 50000, 1) // C2: age>50: 0.52
	return d
}

func TestFigure5GCRStructure(t *testing.T) {
	m1 := &DTModel{Tree: figure5T1(t), N: 200}
	m2 := &DTModel{Tree: figure5T2(t), N: 200}
	gcr, err := DTGCRRegions(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	// 6 geometric cells x 2 classes = 12 regions (3 of the 9 overlay cells
	// are empty: T1's age<=30 leaves cannot meet T2's age>50 leaf, and
	// salary>100K cannot meet salary<=80K under age<=30).
	if len(gcr) != 12 {
		t.Fatalf("|GCR| = %d regions, want 12", len(gcr))
	}
}

func TestFigure5DeviationClassC1(t *testing.T) {
	m1 := &DTModel{Tree: figure5T1(t), N: 200}
	m2 := &DTModel{Tree: figure5T2(t), N: 200}
	d1, d2 := figure5D1(), figure5D2()

	// Focus on class C1 regions only, as the paper's example computes.
	focusC1 := region.Full(figure5Schema()).ConstrainClass(0)
	dev, err := Deviation(DT(dtree.Config{}), m1, m2, d1, d2, AbsoluteDiff, Sum, WithFocus(focusC1))
	if err != nil {
		t.Fatal(err)
	}
	// |0.0-0.0| + |0.0-0.04| + |0.1-0.14| + |0.0-0.0| + |0.0-0.0| +
	// |0.005-0.1| = 0.175 (Sections 2.1 and 4.2).
	if math.Abs(dev-0.175) > 1e-12 {
		t.Errorf("C1 deviation = %v, want 0.175", dev)
	}
}

func TestFigure5FocussedDeviationAgeUnder30(t *testing.T) {
	m1 := &DTModel{Tree: figure5T1(t), N: 200}
	m2 := &DTModel{Tree: figure5T2(t), N: 200}
	d1, d2 := figure5D1(), figure5D2()

	// Section 2.3: focus on age < 30 (our boxes are half-open, so age <= 30
	// selects the same three leftmost GCR regions) and class C1.
	focus := region.Full(figure5Schema()).ConstrainUpper(0, 30).ConstrainClass(0)
	dev, err := Deviation(DT(dtree.Config{}), m1, m2, d1, d2, AbsoluteDiff, Sum, WithFocus(focus))
	if err != nil {
		t.Fatal(err)
	}
	// |0.0-0.0| + |0.0-0.04| + |0.1-0.14| = 0.08.
	if math.Abs(dev-0.08) > 1e-12 {
		t.Errorf("focussed deviation = %v, want 0.08", dev)
	}
}

func TestFigure5FullDeviationIncludesC2(t *testing.T) {
	m1 := &DTModel{Tree: figure5T1(t), N: 200}
	m2 := &DTModel{Tree: figure5T2(t), N: 200}
	d1, d2 := figure5D1(), figure5D2()
	full, err := Deviation(DT(dtree.Config{}), m1, m2, d1, d2, AbsoluteDiff, Sum)
	if err != nil {
		t.Fatal(err)
	}
	c1Only, _ := Deviation(DT(dtree.Config{}), m1, m2, d1, d2, AbsoluteDiff, Sum, WithFocus(region.Full(figure5Schema()).ConstrainClass(0)))
	if full < c1Only {
		t.Errorf("full deviation %v < C1-only deviation %v", full, c1Only)
	}
	// Hand computation of the C2 part over the 6 cells (D1 vs D2):
	// (1) age<=30,sal<=80K: 0.3 vs 0.1 -> 0.2
	// (2) age<=30,80-100K: 0.0 vs 0.1 -> 0.1
	// (3) age<=30,>100K: 0.0 vs 0.0 -> 0.0
	// (4) 30<age<=50,<=80K: 0.045 vs 0.0 -> 0.045
	// (5) 30<age<=50,>80K: 0.0 vs 0.0 -> 0.0
	// (6) age>50: 0.55 vs 0.52 -> 0.03
	// C2 total 0.375, plus C1 total 0.175 = 0.55.
	if math.Abs(full-0.55) > 1e-12 {
		t.Errorf("full deviation = %v, want 0.55", full)
	}
}

// TestFigure5Deviation1Arithmetic checks Definition 3.5 directly on the
// figure's printed measures.
func TestFigure5Deviation1Arithmetic(t *testing.T) {
	n := 200.0
	regions := []MeasuredRegion{
		{Alpha1: 0, Alpha2: 0},
		{Alpha1: 0, Alpha2: 0.04 * n},
		{Alpha1: 0.1 * n, Alpha2: 0.14 * n},
		{Alpha1: 0, Alpha2: 0},
		{Alpha1: 0, Alpha2: 0},
		{Alpha1: 0.005 * n, Alpha2: 0.1 * n},
	}
	if got := Deviation1(regions, n, n, AbsoluteDiff, Sum); math.Abs(got-0.175) > 1e-12 {
		t.Errorf("Deviation1 = %v, want 0.175", got)
	}
	if got := Deviation1(regions, n, n, AbsoluteDiff, Max); math.Abs(got-0.095) > 1e-12 {
		t.Errorf("Deviation1 max = %v, want 0.095", got)
	}
}
