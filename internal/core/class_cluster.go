package core

import (
	"errors"
	"fmt"
	"math/rand"

	"focus/internal/cluster"
	"focus/internal/dataset"
)

// clusterClass is the cluster-model instantiation of ModelClass
// (Section 2.4): models are grid-based cluster labelings over one pinned
// grid, the GCR of two cell-aligned models is the overlay of their
// labelings, and the mergeable streaming summary is the per-batch grid-cell
// count vector.
type clusterClass struct {
	grid       *cluster.Grid
	minDensity float64
}

// Cluster returns the cluster-model class instance inducing grid-based
// cluster models over g at the given density threshold.
func Cluster(g *cluster.Grid, minDensity float64) ModelClass[*dataset.Dataset, *ClusterModel] {
	return clusterClass{grid: g, minDensity: minDensity}
}

func (clusterClass) Name() string { return "cluster" }

func (clusterClass) Len(d *dataset.Dataset) int { return d.Len() }

func (clusterClass) Concat(d1, d2 *dataset.Dataset) (*dataset.Dataset, error) {
	return d1.Concat(d2)
}

func (clusterClass) Resample(d *dataset.Dataset, n int, rng *rand.Rand) *dataset.Dataset {
	return d.Resample(n, rng)
}

// errNilGrid guards every Cluster entry point: a grid variable left nil by
// a failed construction must surface as an error, not a nil-pointer panic.
var errNilGrid = errors.New("core: Cluster requires a non-nil grid")

func (c clusterClass) Induce(d *dataset.Dataset, parallelism int) (*ClusterModel, error) {
	if c.grid == nil {
		return nil, errNilGrid
	}
	cells := cluster.CellCounts(d, c.grid, parallelism)
	m, err := cluster.ModelFromCellCounts(c.grid, cells, d.Len(), c.minDensity)
	if err != nil {
		return nil, err
	}
	// The induced model caches its inducing cell counts so MeasureGCR over
	// the same datasets (the Qualify pipeline's common case) skips a
	// redundant labeling scan.
	return &ClusterModel{M: m, cells: cells, inducedFrom: d}, nil
}

func (clusterClass) MeasureGCR(m1, m2 *ClusterModel, d1, d2 *dataset.Dataset, cfg *Config) ([]MeasuredRegion, error) {
	if !m1.M.Grid.Equal(m2.M.Grid) {
		return nil, errGridMismatch
	}
	cells1 := m1.cachedCells(d1)
	if cells1 == nil {
		cells1 = cluster.CellCounts(d1, m1.M.Grid, cfg.Parallelism)
	}
	cells2 := m2.cachedCells(d2)
	if cells2 == nil {
		cells2 = cluster.CellCounts(d2, m1.M.Grid, cfg.Parallelism)
	}
	return clusterRegionsFromCells(m1, m2, cells1, cells2)
}

func (c clusterClass) NewWindow(parallelism int) (Window[*dataset.Dataset, *ClusterModel], error) {
	if c.grid == nil {
		return nil, errNilGrid
	}
	// Reject the threshold before any batch arrives: every window induction
	// would fail on it, after the batch had already entered the window.
	if !(c.minDensity >= 0 && c.minDensity <= 1) {
		return nil, fmt.Errorf("core: cluster minDensity %v outside [0,1]", c.minDensity)
	}
	return &clusterWindow{
		grid:       c.grid,
		minDensity: c.minDensity,
		cells:      make([]int, c.grid.NumCells()),
	}, nil
}

func (clusterClass) MeasureGCRWindows(m1, m2 *ClusterModel, w1, w2 Window[*dataset.Dataset, *ClusterModel]) ([]MeasuredRegion, error) {
	cw1, ok1 := w1.(*clusterWindow)
	cw2, ok2 := w2.(*clusterWindow)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("core: cluster MeasureGCRWindows over foreign windows %T/%T", w1, w2)
	}
	return clusterRegionsFromCells(m1, m2, cw1.cells, cw2.cells)
}

// clusterBatch is the sealed summary of one batch of tuples for
// cluster-model monitoring: the raw tuples (retained for bootstrap
// qualification) and the batch's grid-cell counts. Cell counts are
// integers, so they add into and subtract out of the window aggregate
// exactly, and the window's cluster-model is re-induced from the aggregate
// alone — no retained batch is ever rescanned.
type clusterBatch struct {
	data  *dataset.Dataset
	cells []int
}

// clusterWindow aggregates batch grid-cell counts incrementally.
type clusterWindow struct {
	grid       *cluster.Grid
	minDensity float64
	batchList  []*clusterBatch
	cells      []int
	n          int
}

func (w *clusterWindow) Add(d *dataset.Dataset, parallelism int) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("core: invalid batch: %w", err)
	}
	if !d.Schema.Equal(w.grid.Schema) {
		return fmt.Errorf("core: batch schema differs from the grid's schema")
	}
	b := &clusterBatch{data: d, cells: cluster.CellCounts(d, w.grid, parallelism)}
	w.batchList = append(w.batchList, b)
	for i, v := range b.cells {
		w.cells[i] += v
	}
	w.n += d.Len()
	return nil
}

func (w *clusterWindow) RemoveFront() {
	b := w.batchList[0]
	w.batchList[0] = nil
	w.batchList = w.batchList[1:]
	for i, v := range b.cells {
		w.cells[i] -= v
	}
	w.n -= b.data.Len()
}

func (w *clusterWindow) Batches() int { return len(w.batchList) }

func (w *clusterWindow) N() int { return w.n }

func (w *clusterWindow) Data() *dataset.Dataset {
	out := dataset.New(w.grid.Schema)
	for _, b := range w.batchList {
		out.Tuples = append(out.Tuples, b.data.Tuples...)
	}
	return out
}

func (w *clusterWindow) Clone() Window[*dataset.Dataset, *ClusterModel] {
	return &clusterWindow{
		grid:       w.grid,
		minDensity: w.minDensity,
		batchList:  append([]*clusterBatch(nil), w.batchList...),
		cells:      append([]int(nil), w.cells...),
		n:          w.n,
	}
}

func (w *clusterWindow) Induce() (*ClusterModel, error) {
	m, err := cluster.ModelFromCellCounts(w.grid, w.cells, w.n, w.minDensity)
	if err != nil {
		return nil, err
	}
	return &ClusterModel{M: m}, nil
}
