package core

import (
	"testing"

	"focus/internal/classgen"
	"focus/internal/cluster"
	"focus/internal/dtree"
)

// Deviation through PinnedDT must measure the datasets it is handed — not
// silently reuse the models' inducing counts — so measuring foreign
// datasets equals the over-tree deviation, and measuring the inducing
// datasets (served from the cache) is bit-identical to a fresh scan.
func TestPinnedDTDeviationMeasuresDatasets(t *testing.T) {
	train, err := classgen.Generate(classgen.Config{NumTuples: 1500, Function: classgen.F1, Seed: 501})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.Build(train, dtree.Config{MaxDepth: 5, MinLeaf: 40})
	if err != nil {
		t.Fatal(err)
	}
	mc := PinnedDT(tree)
	d1, err := classgen.Generate(classgen.Config{NumTuples: 600, Function: classgen.F1, Seed: 502})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := classgen.Generate(classgen.Config{NumTuples: 500, Function: classgen.F3, Seed: 503})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := mc.Induce(d1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := mc.Induce(d2, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Cache path: models measured against their own inducing datasets.
	dev, err := Deviation(mc, m1, m2, d1, d2, AbsoluteDiff, Sum)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DTDeviationOverTreeP(tree, d1, d2, AbsoluteDiff, Sum, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dev != want {
		t.Errorf("cached deviation %v != over-tree %v", dev, want)
	}

	// Recount path: the same models measured against different datasets
	// must reflect those datasets, not the inducing counts.
	d3, err := classgen.Generate(classgen.Config{NumTuples: 400, Function: classgen.F3, Seed: 504})
	if err != nil {
		t.Fatal(err)
	}
	d4, err := classgen.Generate(classgen.Config{NumTuples: 300, Function: classgen.F1, Seed: 505})
	if err != nil {
		t.Fatal(err)
	}
	devForeign, err := Deviation(mc, m1, m2, d3, d4, AbsoluteDiff, Sum)
	if err != nil {
		t.Fatal(err)
	}
	wantForeign, err := DTDeviationOverTreeP(tree, d3, d4, AbsoluteDiff, Sum, 1)
	if err != nil {
		t.Fatal(err)
	}
	if devForeign != wantForeign {
		t.Errorf("foreign-dataset deviation %v != over-tree %v", devForeign, wantForeign)
	}
}

// The cluster MeasureGCR must likewise recount when handed datasets other
// than the models' inducing data.
func TestClusterDeviationMeasuresDatasets(t *testing.T) {
	grid, err := cluster.NewGrid(classgen.Schema(), []int{classgen.AttrSalary, classgen.AttrAge}, 6)
	if err != nil {
		t.Fatal(err)
	}
	mc := Cluster(grid, 0.01)
	d1, err := classgen.Generate(classgen.Config{NumTuples: 900, Function: classgen.F1, Seed: 511})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := classgen.Generate(classgen.Config{NumTuples: 800, Function: classgen.F4, Seed: 512})
	if err != nil {
		t.Fatal(err)
	}
	d3, err := classgen.Generate(classgen.Config{NumTuples: 700, Function: classgen.F4, Seed: 513})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := mc.Induce(d1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := mc.Induce(d2, 1)
	if err != nil {
		t.Fatal(err)
	}
	devForeign, err := Deviation(mc, m1, m2, d1, d3, AbsoluteDiff, Sum)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle always rescans: models from BuildClusterModel carry no
	// cached cell counts.
	o1, err := BuildClusterModel(d1, grid, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := BuildClusterModel(d2, grid, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Deviation(mc, o1, o2, d1, d3, AbsoluteDiff, Sum, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if devForeign != want {
		t.Errorf("foreign-dataset cluster deviation %v != rescanning oracle %v", devForeign, want)
	}
}
