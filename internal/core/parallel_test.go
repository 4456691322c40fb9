package core

import (
	"math/rand"
	"testing"

	"focus/internal/cluster"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/quest"
)

// The parallel deviation pipeline must be bit-identical to the serial path
// for every (f, g) instantiation and every worker count: shards accumulate
// integer counts, merges run in shard order, and the float64 f/g reduction
// stays serial over a fixed region order.

var equivDiffs = []struct {
	name string
	f    DiffFunc
}{
	{"fa", AbsoluteDiff},
	{"fs", ScaledDiff},
}

var equivAggs = []struct {
	name string
	g    AggFunc
}{
	{"sum", Sum},
	{"max", Max},
}

var equivWorkers = []int{2, 3, 8, 0}

func TestLitsDeviationParallelEquivalence(t *testing.T) {
	cfg := quest.DefaultConfig(3000)
	cfg.NumItems = 300
	cfg.NumPatterns = 120
	cfg.AvgTxnLen = 8
	cfg.Seed = 50
	d1, err := quest.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 51
	cfg.AvgPatternLen = 5
	d2, err := quest.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := MineLits(d1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MineLits(d2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range equivDiffs {
		for _, gd := range equivAggs {
			serial, err := Deviation(Lits(0.02), m1, m2, d1, d2, fd.f, gd.g, WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range equivWorkers {
				par, err := Deviation(Lits(0.02), m1, m2, d1, d2, fd.f, gd.g, WithParallelism(p))
				if err != nil {
					t.Fatal(err)
				}
				if par != serial {
					t.Errorf("lits delta(%s,%s) parallelism %d = %v, serial = %v",
						fd.name, gd.name, p, par, serial)
				}
			}
		}
	}
}

func TestMineLitsParallelEquivalence(t *testing.T) {
	cfg := quest.DefaultConfig(2500)
	cfg.NumItems = 250
	cfg.NumPatterns = 100
	cfg.AvgTxnLen = 9
	cfg.Seed = 52
	d, err := quest.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := MineLits(d, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range equivWorkers {
		par, err := MineLitsP(d, 0.02, p)
		if err != nil {
			t.Fatal(err)
		}
		if par.Len() != serial.Len() {
			t.Fatalf("parallelism %d mined %d itemsets, serial %d", p, par.Len(), serial.Len())
		}
		for i := range serial.FS.Itemsets {
			if !par.FS.Itemsets[i].Equal(serial.FS.Itemsets[i]) || par.FS.Counts[i] != serial.FS.Counts[i] {
				t.Fatalf("parallelism %d itemset %d = %v(%d), serial %v(%d)", p, i,
					par.FS.Itemsets[i], par.FS.Counts[i], serial.FS.Itemsets[i], serial.FS.Counts[i])
			}
		}
	}
}

func TestDTDeviationParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	d1 := randomDTDataset(rng, 2000)
	d2 := randomDTDataset(rng, 2400)
	cfg := dtree.Config{MaxDepth: 5, MinLeaf: 25}
	m1, err := BuildDTModel(d1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildDTModel(d2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range equivDiffs {
		for _, gd := range equivAggs {
			serial, err := Deviation(DT(cfg), m1, m2, d1, d2, fd.f, gd.g, WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range equivWorkers {
				par, err := Deviation(DT(cfg), m1, m2, d1, d2, fd.f, gd.g, WithParallelism(p))
				if err != nil {
					t.Fatal(err)
				}
				if par != serial {
					t.Errorf("dt delta(%s,%s) parallelism %d = %v, serial = %v",
						fd.name, gd.name, p, par, serial)
				}
			}
		}
	}
}

func TestClusterDeviationParallelEquivalence(t *testing.T) {
	s := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: 0, Max: 100},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric, Min: 0, Max: 100},
	)
	rng := rand.New(rand.NewSource(54))
	mk := func(cx, cy float64, n int) *dataset.Dataset {
		d := dataset.New(s)
		for i := 0; i < n; i++ {
			d.Add(dataset.Tuple{
				clampF(cx+rng.NormFloat64()*8, 0, 100),
				clampF(cy+rng.NormFloat64()*8, 0, 100),
			})
		}
		return d
	}
	d1 := mk(30, 30, 1500)
	d2 := mk(55, 45, 1700)
	g, err := cluster.NewGrid(s, []int{0, 1}, 12)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := BuildClusterModel(d1, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildClusterModel(d2, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range equivDiffs {
		for _, gd := range equivAggs {
			serial, err := Deviation(Cluster(g, 0.01), m1, m2, d1, d2, fd.f, gd.g, WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range equivWorkers {
				par, err := Deviation(Cluster(g, 0.01), m1, m2, d1, d2, fd.f, gd.g, WithParallelism(p))
				if err != nil {
					t.Fatal(err)
				}
				if par != serial {
					t.Errorf("cluster delta(%s,%s) parallelism %d = %v, serial = %v",
						fd.name, gd.name, p, par, serial)
				}
			}
		}
	}
}

// Qualification must be deterministic across worker counts too: replicate
// RNGs are keyed by replicate index, not by scheduling.
func TestQualifyLitsParallelEquivalence(t *testing.T) {
	cfg := quest.DefaultConfig(1200)
	cfg.NumItems = 200
	cfg.NumPatterns = 80
	cfg.AvgTxnLen = 7
	cfg.Seed = 55
	d1, err := quest.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 56
	d2, err := quest.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Qualify(Lits(0.03), d1, d2, AbsoluteDiff, Sum, WithReplicates(13), WithSeed(57), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 5, 0} {
		par, err := Qualify(Lits(0.03), d1, d2, AbsoluteDiff, Sum, WithReplicates(13), WithSeed(57), WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		if par.Deviation != serial.Deviation || par.Significance != serial.Significance {
			t.Fatalf("parallelism %d: (dev, sig) = (%v, %v), serial (%v, %v)",
				p, par.Deviation, par.Significance, serial.Deviation, serial.Significance)
		}
		for i := range serial.Null {
			if par.Null[i] != serial.Null[i] {
				t.Fatalf("parallelism %d: null[%d] = %v, serial %v", p, i, par.Null[i], serial.Null[i])
			}
		}
	}
}

// Regression test for the Extension-bootstrap data race: the draw closures
// used to assign the Concat result's error to a variable captured from the
// enclosing function, so two bootstrap workers could write it at once.
// Running the Extension qualification with several workers under -race
// exercises the write path on every replicate.
func TestQualifyExtensionRaceRegression(t *testing.T) {
	// lits: D2 extends D1 with a resampled block.
	cfg := quest.DefaultConfig(600)
	cfg.NumItems = 150
	cfg.NumPatterns = 60
	cfg.AvgTxnLen = 6
	cfg.Seed = 58
	base, err := quest.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blk := base.Resample(80, rand.New(rand.NewSource(59)))
	ext, err := base.Concat(blk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Qualify(Lits(0.05), base, ext, AbsoluteDiff, Sum, WithReplicates(16), WithSeed(60), WithExtension(), WithParallelism(4)); err != nil {
		t.Fatal(err)
	}

	// dt: same monitoring setting over a classification dataset.
	rng := rand.New(rand.NewSource(61))
	dBase := randomDTDataset(rng, 900)
	dExt, err := dBase.Concat(dBase.Resample(120, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Qualify(DT(dtree.Config{MaxDepth: 4, MinLeaf: 25}), dBase, dExt, AbsoluteDiff, Sum, WithReplicates(16), WithSeed(62), WithExtension(), WithParallelism(4)); err != nil {
		t.Fatal(err)
	}
}

// dtTreesIdentical compares two trees field-by-field; the DT induction
// engine guarantees bit-identical trees for every worker count.
func dtTreesIdentical(a, b *dtree.Tree) bool {
	var eq func(x, y *dtree.Node) bool
	eq = func(x, y *dtree.Node) bool {
		if x.IsLeaf() != y.IsLeaf() {
			return false
		}
		if x.IsLeaf() {
			if x.LeafID != y.LeafID || len(x.ClassCounts) != len(y.ClassCounts) {
				return false
			}
			for c := range x.ClassCounts {
				if x.ClassCounts[c] != y.ClassCounts[c] {
					return false
				}
			}
			return true
		}
		if x.Attr != y.Attr || x.Threshold != y.Threshold || len(x.LeftValues) != len(y.LeftValues) {
			return false
		}
		for v := range x.LeftValues {
			if x.LeftValues[v] != y.LeftValues[v] {
				return false
			}
		}
		return eq(x.Left, y.Left) && eq(x.Right, y.Right)
	}
	return a.NumLeaves() == b.NumLeaves() && eq(a.Root, b.Root)
}

// TestDTInduceParallelEquivalence: dtClass.Induce threads the parallelism
// knob into the tree builder's split search, and the induced model must be
// bit-identical for every worker count.
func TestDTInduceParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	d := randomDTDataset(rng, 2500)
	mc := DT(dtree.Config{MaxDepth: 7, MinLeaf: 10})
	serial, err := mc.Induce(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range equivWorkers {
		par, err := mc.Induce(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if par.N != serial.N || !dtTreesIdentical(par.Tree, serial.Tree) {
			t.Errorf("parallelism %d induced a different tree than serial", p)
		}
	}
}

// TestDTQualifyParallelEquivalence: the full observe-and-bootstrap pipeline
// (parallel tree induction included) is bit-identical across worker counts.
func TestDTQualifyParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	d1 := randomDTDataset(rng, 1200)
	d2 := randomDTDataset(rng, 1400)
	cfg := dtree.Config{MaxDepth: 5, MinLeaf: 20}
	serial, err := Qualify(DT(cfg), d1, d2, AbsoluteDiff, Sum, WithReplicates(12), WithSeed(65), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range equivWorkers {
		par, err := Qualify(DT(cfg), d1, d2, AbsoluteDiff, Sum, WithReplicates(12), WithSeed(65), WithParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		if par.Deviation != serial.Deviation || par.Significance != serial.Significance {
			t.Errorf("parallelism %d: qualification (%v, %v) != serial (%v, %v)",
				p, par.Deviation, par.Significance, serial.Deviation, serial.Significance)
		}
		for i := range serial.Null {
			if par.Null[i] != serial.Null[i] {
				t.Errorf("parallelism %d: null[%d] = %v, serial %v", p, i, par.Null[i], serial.Null[i])
				break
			}
		}
	}
}
