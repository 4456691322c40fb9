package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"focus/internal/classgen"
	"focus/internal/dataset"
	"focus/internal/quest"
	"focus/internal/serve"
	"focus/internal/txn"
)

// sessionInput is one monitor session of a serving workload: the create
// body and the feed bodies in feed order. Every byte is derived from the
// workload seed; the programs under test receive only these bodies.
type sessionInput struct {
	name     string
	cfg      serve.SessionConfig
	create   []byte   // POST /v1/sessions body
	feeds    [][]byte // POST /v1/sessions/{name}/batches bodies
	rows     []int    // rows per feed
	rowBytes []int    // bytes of each feed's "rows" array
}

// tupleParams sizes a dt or cluster session over classgen tuples.
type tupleParams struct {
	refRows, batchRows, batches, window int
	qualify                             bool
	replicates                          int
}

// litsParams sizes a lits session over Quest transactions.
type litsParams struct {
	items, patterns             int
	txnLen, patLen, minSupport  float64
	refTxns, batchTxns, batches int
	window, replicates          int
}

// Classgen knobs shared by every tuple session: the pinned tree's growth
// limits (dt) and the density grid (cluster).
const (
	treeMaxDepth = 8
	treeMinLeaf  = 20
	gridBins     = 8
	minDensity   = 0.01
)

var gridAttrs = []string{"salary", "age"}

// tupleSession builds a dt or cluster session. The reference is drawn
// under classification function F1; the second half of the stream switches
// to F3, so the dt deviation rises mid-stream the way a drifting source
// would.
func tupleSession(name, model string, rng *rand.Rand, p tupleParams) (sessionInput, error) {
	ref, err := classgen.Generate(classgen.Config{NumTuples: p.refRows, Function: classgen.F1, Seed: rng.Int63()})
	if err != nil {
		return sessionInput{}, err
	}
	refRows, err := tupleRowsJSON(ref)
	if err != nil {
		return sessionInput{}, err
	}
	cfg := serve.SessionConfig{
		Name:       name,
		Model:      model,
		Schema:     schemaJSON(classgen.Schema()),
		Window:     p.window,
		Threshold:  0.05,
		Qualify:    p.qualify,
		Replicates: p.replicates,
		Seed:       rng.Int63n(1 << 30),
		Reference:  refRows,
	}
	switch model {
	case "dt":
		cfg.MaxDepth, cfg.MinLeaf = treeMaxDepth, treeMinLeaf
	case "cluster":
		cfg.GridAttrs, cfg.GridBins, cfg.MinDensity = gridAttrs, gridBins, minDensity
	default:
		return sessionInput{}, fmt.Errorf("unknown tuple model %q", model)
	}
	in := sessionInput{name: name, cfg: cfg}
	for b := 0; b < p.batches; b++ {
		fn := classgen.F1
		if b >= p.batches/2 {
			fn = classgen.F3
		}
		d, err := classgen.Generate(classgen.Config{NumTuples: p.batchRows, Function: fn, Seed: rng.Int63()})
		if err != nil {
			return sessionInput{}, err
		}
		rows, err := tupleRowsJSON(d)
		if err != nil {
			return sessionInput{}, err
		}
		in.addFeed(int64(b+1), rows, d.Len())
	}
	return in, in.finish()
}

// questPoolSize is the number of transactions drawn once from each of a lits
// stream's two Quest pattern pools.
const questPoolSize = 4000

// questPool generates a fixed transaction pool. The pattern pool — which
// itemsets are frequent, and so how much a window costs to mine — is part
// of the workload's definition, not of its seed: a Quest pattern pool
// drawn per seed changes the frequent-itemset count several-fold, which
// would make runs on different seeds measure different work.
func questPool(p litsParams, poolSeed int64) (*txn.Dataset, error) {
	qc := quest.DefaultConfig(questPoolSize)
	qc.NumItems, qc.NumPatterns = p.items, p.patterns
	qc.AvgTxnLen, qc.AvgPatternLen = p.txnLen, p.patLen
	qc.Seed = poolSeed
	return quest.Generate(qc)
}

// draw samples n transactions from pool with replacement.
func draw(pool *txn.Dataset, n int, rng *rand.Rand) *txn.Dataset {
	d := txn.New(pool.NumItems)
	for i := 0; i < n; i++ {
		d.Txns = append(d.Txns, pool.Txns[rng.Intn(len(pool.Txns))])
	}
	return d
}

// litsSession builds a lits session. The reference and the first half of
// the stream are drawn from one Quest pattern pool, the second half from
// another, so the itemset deviation rises mid-stream. The workload seed
// picks the transactions. The create body leaves "parallelism" out, as
// real create bodies do, so the session scans and bootstraps on focusd's
// default worker count.
func litsSession(name string, rng *rand.Rand, p litsParams) (sessionInput, error) {
	before, err := questPool(p, 1)
	if err != nil {
		return sessionInput{}, err
	}
	after, err := questPool(p, 2)
	if err != nil {
		return sessionInput{}, err
	}
	refRows, err := txnRowsJSON(draw(before, p.refTxns, rng))
	if err != nil {
		return sessionInput{}, err
	}
	cfg := serve.SessionConfig{
		Name:       name,
		Model:      "lits",
		NumItems:   p.items,
		MinSupport: p.minSupport,
		Window:     p.window,
		Threshold:  0.5,
		Qualify:    true,
		Replicates: p.replicates,
		Seed:       rng.Int63n(1 << 30),
		Reference:  refRows,
	}
	in := sessionInput{name: name, cfg: cfg}
	for b := 0; b < p.batches; b++ {
		pool := before
		if b >= p.batches/2 {
			pool = after
		}
		d := draw(pool, p.batchTxns, rng)
		rows, err := txnRowsJSON(d)
		if err != nil {
			return sessionInput{}, err
		}
		in.addFeed(int64(b+1), rows, d.Len())
	}
	return in, in.finish()
}

func (in *sessionInput) addFeed(epoch int64, rows []byte, n int) {
	body := fmt.Appendf(nil, `{"epoch":%d,"rows":%s}`, epoch, rows)
	in.feeds = append(in.feeds, body)
	in.rows = append(in.rows, n)
	in.rowBytes = append(in.rowBytes, len(rows))
}

func (in *sessionInput) finish() error {
	var err error
	in.create, err = json.Marshal(in.cfg)
	return err
}

// schemaJSON renders a dataset schema in the create-body wire form.
func schemaJSON(s *dataset.Schema) *serve.SchemaJSON {
	out := &serve.SchemaJSON{}
	for _, a := range s.Attrs {
		aj := serve.AttributeJSON{Name: a.Name}
		if a.Kind == dataset.Categorical {
			aj.Kind, aj.Values = "categorical", a.Values
		} else {
			aj.Kind, aj.Min, aj.Max = "numeric", a.Min, a.Max
		}
		out.Attrs = append(out.Attrs, aj)
	}
	if s.Class >= 0 {
		out.Class = s.Attrs[s.Class].Name
	}
	return out
}

// tupleRowsJSON renders tuples as a JSON array of row objects, reusing the
// dataset's own JSONL writer (full float64 precision, categoricals by
// name), so decoding the rows gives back the exact tuples.
func tupleRowsJSON(d *dataset.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	out := append([]byte{'['}, bytes.Join(lines, []byte(","))...)
	return append(out, ']'), nil
}

// txnRowsJSON renders transactions as a JSON array of item-id arrays.
func txnRowsJSON(d *txn.Dataset) ([]byte, error) {
	return json.Marshal(d.Txns)
}

// workload builds a benchmark workload's inputs.
type workload struct {
	// sessions builds the served sessions. paper-experiments has none on
	// its untraced path; its traced run replays analystStream through the
	// serving layers so that every per-layer metric carries a measurement.
	sessions func(seed int64) ([]sessionInput, error)
	// readOther makes each client read the sessions another client is
	// feeding, so reads wait on the session lock a feed holds.
	readOther bool
	serving   bool
}

var workloads = map[string]workload{
	"tuple-feed":        {sessions: tupleFeedStream, serving: true},
	"lits-qualify":      {sessions: litsQualifyStream, readOther: true, serving: true},
	"paper-experiments": {sessions: analystStream},
}

// tupleFeedStream: wide (~100 KB) batches of 500 tuples into dt and cluster
// sessions without qualification, so row decoding, the router hop, the WAL
// and compaction dominate and the engine idles.
func tupleFeedStream(seed int64) ([]sessionInput, error) {
	rng := rand.New(rand.NewSource(seed))
	p := tupleParams{refRows: 2000, batchRows: 500, batches: 50, window: 2}
	var out []sessionInput
	for i, model := range []string{"dt", "cluster", "dt", "cluster"} {
		s, err := tupleSession(fmt.Sprintf("%s-%d", model, i), model, rng, p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// litsQualifyParams: small batches over a 200-item universe at 5% support,
// so each emission's window holds some 150 frequent itemsets. Windows of
// 120 transactions keep that count steady; at 60, a pattern crossing the
// 3-transaction support by chance makes the odd window several times
// dearer, and the feed tail follows the seed.
var litsQualifyParams = litsParams{
	items: 200, patterns: 100, txnLen: 6, patLen: 3, minSupport: 0.05,
	refTxns: 300, batchTxns: 60, batches: 50, window: 2, replicates: 19,
}

// litsQualifyStream: small batches of Quest transactions into lits sessions
// that bootstrap-qualify every emission, so window mining, GCR and the
// bootstrap dominate and the wire is a few percent.
func litsQualifyStream(seed int64) ([]sessionInput, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []sessionInput
	for i := 0; i < 4; i++ {
		s, err := litsSession(fmt.Sprintf("lits-%d", i), rng, litsQualifyParams)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// analystStream serves the kinds of data the paper's experiments analyse as
// two qualifying sessions, one dt over classgen tuples and one lits over
// Quest transactions. Only the traced run of paper-experiments uses it,
// so that the layers the job does not touch still carry a measurement.
func analystStream(seed int64) ([]sessionInput, error) {
	rng := rand.New(rand.NewSource(seed))
	dt, err := tupleSession("dt-0", "dt", rng, tupleParams{
		refRows: 1000, batchRows: 200, batches: 100, window: 1, qualify: true, replicates: 11,
	})
	if err != nil {
		return nil, err
	}
	p := litsQualifyParams
	p.batches = 100
	lits, err := litsSession("lits-1", rng, p)
	if err != nil {
		return nil, err
	}
	return []sessionInput{dt, lits}, nil
}
