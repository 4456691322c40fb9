package core

import (
	"errors"
	"fmt"
	"sort"

	"focus/internal/cluster"
	"focus/internal/dataset"
)

// ClusterModel is a cluster-model (Section 2.4): the structural component is
// a set of non-overlapping regions (here, unions of grid cells), one per
// cluster, which need not cover the attribute space; the measure component
// is the fraction of the inducing dataset in each cluster. Its treatment is
// a special case of dt-models: the GCR of two cell-aligned cluster models is
// the overlay of their cluster labelings.
type ClusterModel struct {
	M *cluster.Model

	// cells caches the per-grid-cell counts of the inducing dataset and
	// inducedFrom identifies it, so MeasureGCR can skip re-counting when
	// measuring a model against its own inducing data (the Qualify
	// bootstrap's hot path). The cache is keyed by dataset identity and
	// size — appending to the dataset changes Len and misses — so the
	// inducing dataset must not be mutated in place between Induce and
	// measuring.
	cells       []int
	inducedFrom *dataset.Dataset
}

// cachedCells returns the inducing cell counts when d is the dataset this
// model was induced from, or nil to request a fresh scan.
func (m *ClusterModel) cachedCells(d *dataset.Dataset) []int {
	if m.cells != nil && m.inducedFrom == d && d.Len() == m.M.N {
		return m.cells
	}
	return nil
}

// BuildClusterModel induces a cluster-model from d over grid g with the
// given density threshold.
func BuildClusterModel(d *dataset.Dataset, g *cluster.Grid, minDensity float64) (*ClusterModel, error) {
	m, err := cluster.BuildModel(d, g, minDensity)
	if err != nil {
		return nil, err
	}
	return &ClusterModel{M: m}, nil
}

// NumClusters returns the number of regions in the structural component.
func (m *ClusterModel) NumClusters() int { return m.M.NumClusters }

// errGridMismatch is the shared grid-alignment error of every cluster GCR
// path.
var errGridMismatch = errors.New("core: cluster-models over different grids have no cell-aligned GCR")

// clusterRegionsFromCells assembles the measured GCR regions of two
// cell-aligned cluster-models from per-cell counts: the non-empty label
// pairs (c1, c2) of the overlay, excluding (Outside, Outside), in sorted
// (c1, c2) order so the float64 reduction is independent of map iteration
// and encounter order.
func clusterRegionsFromCells(m1, m2 *ClusterModel, cells1, cells2 []int) ([]MeasuredRegion, error) {
	if !m1.M.Grid.Equal(m2.M.Grid) {
		return nil, errGridMismatch
	}
	nc := m1.M.Grid.NumCells()
	if len(cells1) != nc || len(cells2) != nc {
		return nil, fmt.Errorf("core: cell counts of length %d/%d do not match the grid's %d cells", len(cells1), len(cells2), nc)
	}
	type key struct{ c1, c2 int }
	counts := make(map[key]*MeasuredRegion)
	for cell := 0; cell < nc; cell++ {
		v1, v2 := cells1[cell], cells2[cell]
		if v1 == 0 && v2 == 0 {
			continue
		}
		c1, c2 := m1.M.CellCluster[cell], m2.M.CellCluster[cell]
		if c1 == cluster.Outside && c2 == cluster.Outside {
			continue
		}
		r, ok := counts[key{c1, c2}]
		if !ok {
			r = &MeasuredRegion{}
			counts[key{c1, c2}] = r
		}
		r.Alpha1 += float64(v1)
		r.Alpha2 += float64(v2)
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].c1 != keys[j].c1 {
			return keys[i].c1 < keys[j].c1
		}
		return keys[i].c2 < keys[j].c2
	})
	regions := make([]MeasuredRegion, len(keys))
	for i, k := range keys {
		regions[i] = *counts[k]
	}
	return regions, nil
}
