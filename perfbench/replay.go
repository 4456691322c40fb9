package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"focus/internal/apriori"
	"focus/internal/cluster"
	"focus/internal/core"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/serve"
	"focus/internal/stream"
	"focus/internal/txn"
)

// coreSample is one emission replayed step by step through the core
// layer's public functions, in the order stream.Monitor runs them.
type coreSample struct {
	add, induce, gcr, qualify float64 // ms
	qualified                 bool    // the monitor qualifies too, so qualify counts in its ingest
	dev                       float64
	sig                       *float64
	regions, frequent         int
}

// typedReplay feeds one session's batches, decoded ahead of time, through a
// stream.Monitor (ingest) and through the core steps the monitor is built
// from (coreStep). The two hold separate copies of every batch, so neither
// warms the other's memoized indexes.
type typedReplay interface {
	ingest(b int) (spanMS, allocKB float64, rep *stream.Report, err error)
	coreStep(b int) (coreSample, error)
}

// whatIfEvery spaces the bootstrap measured on sessions that do not
// qualify their emissions: core.qualify_ms still reads the cost of
// qualifying that workload's windows, on a tenth of its emissions.
const whatIfEvery = 10

// whatIfReplicates is the replicate count of that measurement.
const whatIfReplicates = 19

type replay[D, M any] struct {
	mc       core.ModelClass[D, M]
	cfg      core.Config
	mon      *stream.Monitor[D, M]
	monIn    []D // batches for the monitor
	coreIn   []D // batches for the core steps
	epochs   []int64
	live     core.Window[D, M]
	ref      core.Window[D, M]
	refModel M
	seq      int
	frequent func(M) int
}

// newReplay builds the monitor and the step-by-step windows over two
// separate decodes of the reference and every batch.
func newReplay[D, M any](mc core.ModelClass[D, M], cfg core.Config, s *sessionInput, decode func([]byte) (D, error), frequent func(M) int) (*replay[D, M], error) {
	r := &replay[D, M]{mc: mc, cfg: cfg, frequent: frequent}
	refMon, err := decode(s.cfg.Reference)
	if err != nil {
		return nil, err
	}
	refCore, err := decode(s.cfg.Reference)
	if err != nil {
		return nil, err
	}
	for _, body := range s.feeds {
		epoch, rows, err := splitFeed(body)
		if err != nil {
			return nil, err
		}
		a, err := decode(rows)
		if err != nil {
			return nil, err
		}
		b, err := decode(rows)
		if err != nil {
			return nil, err
		}
		r.monIn, r.coreIn, r.epochs = append(r.monIn, a), append(r.coreIn, b), append(r.epochs, *epoch)
	}
	if r.mon, err = stream.New(mc, refMon, cfg); err != nil {
		return nil, err
	}
	if r.live, err = mc.NewWindow(cfg.Parallelism); err != nil {
		return nil, err
	}
	r.ref = r.live.Clone()
	if err := r.ref.Add(refCore, cfg.Parallelism); err != nil {
		return nil, err
	}
	r.refModel, err = r.ref.Induce()
	return r, err
}

func (r *replay[D, M]) ingest(b int) (float64, float64, *stream.Report, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	rep, err := r.mon.IngestEpoch(r.epochs[b], r.monIn[b])
	span := ms(time.Since(t))
	runtime.ReadMemStats(&m1)
	return span, float64(m1.TotalAlloc-m0.TotalAlloc) / 1024, rep, err
}

func (r *replay[D, M]) coreStep(b int) (coreSample, error) {
	var s coreSample
	par := r.cfg.Parallelism
	t := time.Now()
	if err := r.live.Add(r.coreIn[b], par); err != nil {
		return s, err
	}
	for r.live.Batches() > r.cfg.WindowBatches {
		r.live.RemoveFront()
	}
	s.add = ms(time.Since(t))

	t = time.Now()
	cur, err := r.live.Induce()
	if err != nil {
		return s, err
	}
	s.induce = ms(time.Since(t))

	t = time.Now()
	regions, err := r.mc.MeasureGCRWindows(r.refModel, cur, r.ref, r.live)
	if err != nil {
		return s, err
	}
	s.dev = core.Deviation1(regions, float64(r.ref.N()), float64(r.live.N()), r.cfg.F, r.cfg.G)
	s.gcr = ms(time.Since(t))
	s.regions, s.frequent = len(regions), r.frequent(cur)

	s.qualified = r.cfg.Qualify
	if s.qualified || b%whatIfEvery == 0 {
		qc := core.Config{Replicates: r.cfg.Replicates, Seed: r.cfg.Seed + int64(r.seq), Parallelism: par}
		if !s.qualified {
			qc.Replicates = whatIfReplicates
		}
		t = time.Now()
		q, err := core.Qualify(r.mc, r.ref.Data(), r.live.Data(), r.cfg.F, r.cfg.G, core.WithConfig(qc))
		if err != nil {
			return s, err
		}
		s.qualify = ms(time.Since(t))
		s.sig = &q.Significance
	}
	r.seq++
	return s, nil
}

// splitFeed extracts the epoch and the rows array of a feed body.
func splitFeed(body []byte) (*int64, json.RawMessage, error) {
	var fr struct {
		Epoch *int64          `json:"epoch"`
		Rows  json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		return nil, nil, err
	}
	if fr.Epoch == nil {
		return nil, nil, fmt.Errorf("feed body without epoch")
	}
	return fr.Epoch, fr.Rows, nil
}

// monitorConfig mirrors the monitor configuration focusd assembles from a
// create body (serve's defaults: f = fa, g = sum, a one-batch window).
func monitorConfig(cfg *serve.SessionConfig) (core.Config, error) {
	f, g := cfg.F, cfg.G
	if f == "" {
		f = "fa"
	}
	if g == "" {
		g = "sum"
	}
	df, err := core.DiffByName(f)
	if err != nil {
		return core.Config{}, err
	}
	ag, err := core.AggByName(g)
	if err != nil {
		return core.Config{}, err
	}
	window := max(cfg.Window, 1)
	return core.Config{
		F: df, G: ag, Parallelism: cfg.Parallelism, WindowBatches: window,
		Threshold: cfg.Threshold, Qualify: cfg.Qualify, Replicates: cfg.Replicates, Seed: cfg.Seed,
	}, nil
}

// buildTree grows the pinned tree of a dt session the way focusd does at
// create.
func buildTree(cfg *serve.SessionConfig, ref *dataset.Dataset) (*dtree.Tree, error) {
	search, err := dtree.ParseSplitSearch(cfg.SplitSearch)
	if err != nil {
		return nil, err
	}
	return dtree.BuildP(ref, dtree.Config{
		MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, SplitSearch: search, HistBins: cfg.HistBins,
	}, cfg.Parallelism)
}

// newTypedReplay builds the typed replay of a session, mirroring the model
// class focusd binds for its create body.
func newTypedReplay(s *sessionInput) (typedReplay, error) {
	cfg := &s.cfg
	mcfg, err := monitorConfig(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Model == "lits" {
		mc := core.LitsWithCounter(cfg.MinSupport, apriori.CounterDefault)
		decode := func(raw []byte) (*txn.Dataset, error) { return decodeTxns(cfg.NumItems, raw) }
		return newReplay(mc, mcfg, s, decode, func(m *core.LitsModel) int { return m.Len() })
	}
	schema, err := cfg.Schema.Schema()
	if err != nil {
		return nil, err
	}
	td := dataset.NewTupleDecoder(schema)
	decode := func(raw []byte) (*dataset.Dataset, error) { return decodeTuples(schema, td, raw) }
	switch cfg.Model {
	case "dt":
		ref, err := decode(cfg.Reference)
		if err != nil {
			return nil, err
		}
		tree, err := buildTree(cfg, ref)
		if err != nil {
			return nil, err
		}
		return newReplay(core.PinnedDT(tree), mcfg, s, decode, func(*core.DTMeasures) int { return 0 })
	case "cluster":
		attrs := make([]int, len(cfg.GridAttrs))
		for i, name := range cfg.GridAttrs {
			attrs[i] = schema.AttrIndex(name)
		}
		grid, err := cluster.NewGrid(schema, attrs, cfg.GridBins)
		if err != nil {
			return nil, err
		}
		return newReplay(core.Cluster(grid, cfg.MinDensity), mcfg, s, decode, func(*core.ClusterModel) int { return 0 })
	}
	return nil, fmt.Errorf("unknown model %q", cfg.Model)
}

// decodeTxns decodes a rows array of item-id arrays the way focusd does.
func decodeTxns(numItems int, raw []byte) (*txn.Dataset, error) {
	var rows [][]int64
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, err
	}
	d := txn.New(numItems)
	for _, row := range rows {
		t := make(txn.Transaction, 0, len(row))
		for _, v := range row {
			t = append(t, txn.Item(v))
		}
		d.Txns = append(d.Txns, t.Normalize())
	}
	return d, nil
}

// decodeTuples decodes a rows array of row objects the way focusd does.
func decodeTuples(s *dataset.Schema, td *dataset.TupleDecoder, raw []byte) (*dataset.Dataset, error) {
	var rows []json.RawMessage
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, err
	}
	d := dataset.New(s)
	for _, r := range rows {
		t, err := td.Decode(r)
		if err != nil {
			return nil, err
		}
		d.Tuples = append(d.Tuples, t)
	}
	return d, nil
}

// countNodes counts the nodes of a tree.
func countNodes(n *dtree.Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}
