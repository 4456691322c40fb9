package core

import (
	"math/rand"
	"testing"

	"focus/internal/cluster"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/quest"
	"focus/internal/txn"
)

func TestQualifyLitsSameProcessInsignificant(t *testing.T) {
	cfg := quest.DefaultConfig(2000)
	cfg.NumItems = 400
	cfg.NumPatterns = 150
	cfg.AvgTxnLen = 8
	cfg.Seed = 1
	g, err := quest.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two halves of one generated stream: same process.
	d1 := g.GenerateN(1000)
	d2 := g.GenerateN(1000)
	q, err := Qualify(Lits(0.03), d1, d2, AbsoluteDiff, Sum, WithReplicates(29), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if q.Significance > 99 {
		t.Errorf("same-process significance = %v, want below 99", q.Significance)
	}
	if len(q.Null) != 29 {
		t.Errorf("null size %d", len(q.Null))
	}
}

func TestQualifyLitsDifferentProcessSignificant(t *testing.T) {
	cfg1 := quest.DefaultConfig(1000)
	cfg1.NumItems = 400
	cfg1.NumPatterns = 150
	cfg1.AvgTxnLen = 8
	cfg1.Seed = 3
	cfg2 := cfg1
	cfg2.AvgPatternLen = 8 // the patlen knob of Figure 13
	cfg2.Seed = 4
	d1, err := quest.Generate(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := quest.Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Qualify(Lits(0.03), d1, d2, AbsoluteDiff, Sum, WithReplicates(29), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if q.Significance < 96 { // above every one of the 29 null draws
		t.Errorf("different-process significance = %v, want high", q.Significance)
	}
	if q.Deviation <= 0 {
		t.Errorf("deviation = %v, want > 0", q.Deviation)
	}
}

func TestQualifyDTDetectsFunctionChange(t *testing.T) {
	d1 := randomDTDataset(rand.New(rand.NewSource(20)), 1200)
	// Different process: flip the label rule.
	d2 := dataset.New(dtTestSchema())
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1200; i++ {
		x, y := rng.Float64(), rng.Float64()
		cls := 0.0
		if x+y > 1.3 {
			cls = 1
		}
		d2.Add(dataset.Tuple{x, y, cls})
	}
	cfg := dtree.Config{MaxDepth: 4, MinLeaf: 30}
	q, err := Qualify(DT(cfg), d1, d2, AbsoluteDiff, Sum, WithReplicates(19), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if q.Significance < 94 {
		t.Errorf("different-process dt significance = %v, want high", q.Significance)
	}
}

func TestQualifyDTSameProcessInsignificant(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	whole := randomDTDataset(rng, 2400)
	d1, d2 := whole.Split(1200)
	cfg := dtree.Config{MaxDepth: 4, MinLeaf: 30}
	q, err := Qualify(DT(cfg), d1, d2, AbsoluteDiff, Sum, WithReplicates(19), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if q.Significance > 99 {
		t.Errorf("same-process dt significance = %v, want below 99", q.Significance)
	}
}

// The Extension null (monitoring setting: D2 = D1 + Δ) must detect a small
// appended block from a different process, which the independent-pairs null
// cannot — and it must reject size-mismatched inputs.
func TestQualifyDTExtensionDetectsAppendedBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	base := randomDTDataset(rng, 3000)
	// Append a 10% block with flipped labels.
	block := dataset.New(dtTestSchema())
	for i := 0; i < 300; i++ {
		x, y := rng.Float64(), rng.Float64()
		cls := 0.0
		if x+y < 0.8 {
			cls = 1
		}
		block.Add(dataset.Tuple{x, y, cls})
	}
	extended, err := base.Concat(block)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dtree.Config{MaxDepth: 4, MinLeaf: 30}
	q, err := Qualify(DT(cfg), base, extended, AbsoluteDiff, Sum, WithReplicates(19), WithSeed(41), WithExtension())
	if err != nil {
		t.Fatal(err)
	}
	if q.Significance < 94 {
		t.Errorf("extension significance = %v, want high", q.Significance)
	}
	// A same-process extension stays insignificant. (randomDTDataset draws
	// a fresh rule each call, so model the same process by resampling base.)
	sameBlock := base.Resample(300, rng)
	sameExt, err := base.Concat(sameBlock)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Qualify(DT(cfg), base, sameExt, AbsoluteDiff, Sum, WithReplicates(19), WithSeed(42), WithExtension())
	if err != nil {
		t.Fatal(err)
	}
	if q2.Significance > 99 {
		t.Errorf("same-process extension significance = %v, want low", q2.Significance)
	}
	// |D2| < |D1| is rejected under Extension.
	if _, err := Qualify(DT(cfg), extended, base, AbsoluteDiff, Sum, WithReplicates(9), WithSeed(43), WithExtension()); err == nil {
		t.Error("Extension with |D2| < |D1| accepted")
	}
}

func TestQualifyValidation(t *testing.T) {
	emptyTxn := txn.New(10)
	if _, err := Qualify(Lits(0.1), emptyTxn, emptyTxn, AbsoluteDiff, Sum); err == nil {
		t.Error("empty transaction datasets accepted")
	}
	empty := dataset.New(dtTestSchema())
	if _, err := Qualify(DT(dtree.Config{}), empty, empty, AbsoluteDiff, Sum); err == nil {
		t.Error("empty dt datasets accepted")
	}
}

// ---- cluster-model qualification-adjacent tests ----

func TestClusterDeviationIdenticalZero(t *testing.T) {
	s := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: 0, Max: 100},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric, Min: 0, Max: 100},
	)
	rng := rand.New(rand.NewSource(30))
	d := dataset.New(s)
	for i := 0; i < 400; i++ {
		d.Add(dataset.Tuple{20 + rng.NormFloat64()*4, 20 + rng.NormFloat64()*4})
	}
	g, err := cluster.NewGrid(s, []int{0, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildClusterModel(d, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := Deviation(Cluster(g, 0.01), m, m, d, d, AbsoluteDiff, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if dev != 0 {
		t.Errorf("self cluster deviation = %v", dev)
	}
}

func TestClusterDeviationDetectsShift(t *testing.T) {
	s := dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: 0, Max: 100},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric, Min: 0, Max: 100},
	)
	rng := rand.New(rand.NewSource(31))
	mk := func(cx, cy float64) *dataset.Dataset {
		d := dataset.New(s)
		for i := 0; i < 400; i++ {
			x := cx + rng.NormFloat64()*4
			y := cy + rng.NormFloat64()*4
			d.Add(dataset.Tuple{clampF(x, 0, 100), clampF(y, 0, 100)})
		}
		return d
	}
	d1 := mk(20, 20)
	d2 := mk(75, 75)
	g, _ := cluster.NewGrid(s, []int{0, 1}, 10)
	m1, err := BuildClusterModel(d1, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildClusterModel(d2, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := Deviation(Cluster(g, 0.01), m1, m2, d1, d2, AbsoluteDiff, Sum)
	if err != nil {
		t.Fatal(err)
	}
	// All mass moved from one cluster region to another: both GCR regions
	// flip ~1 selectivity each, so the deviation approaches 2.
	if dev < 1.5 {
		t.Errorf("shifted-cluster deviation = %v, want near 2", dev)
	}
	// Mismatched grids are rejected.
	g2, _ := cluster.NewGrid(s, []int{0, 1}, 20)
	m3, _ := BuildClusterModel(d2, g2, 0.01)
	if _, err := Deviation(Cluster(g, 0.01), m1, m3, d1, d2, AbsoluteDiff, Sum); err == nil {
		t.Error("cross-grid cluster deviation succeeded")
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
