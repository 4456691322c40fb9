package serve

import (
	"encoding/json"
	"fmt"

	"focus/internal/dataset"
	"focus/internal/stream"
	"focus/internal/txn"
)

// This file defines the JSON wire format of the focusd HTTP API: session
// configuration, schemas, batches and reports. The wire types are plain
// data — conversion to the internal substrates validates every field and
// maps failures to 4xx responses.

// SchemaJSON is the wire form of a dataset schema.
type SchemaJSON struct {
	Attrs []AttributeJSON `json:"attrs"`
	// Class optionally names the class attribute (required for dt
	// sessions).
	Class string `json:"class,omitempty"`
}

// AttributeJSON is the wire form of one attribute.
type AttributeJSON struct {
	Name string `json:"name"`
	// Kind is "numeric" or "categorical".
	Kind string `json:"kind"`
	// Min and Max bound a numeric attribute's domain.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Values lists a categorical attribute's domain.
	Values []string `json:"values,omitempty"`
}

// Schema converts the wire schema to a dataset schema, validating it.
func (sj *SchemaJSON) Schema() (*dataset.Schema, error) {
	if sj == nil || len(sj.Attrs) == 0 {
		return nil, fmt.Errorf("schema with at least one attribute required")
	}
	attrs := make([]dataset.Attribute, len(sj.Attrs))
	for i, a := range sj.Attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("attribute %d: name required", i)
		}
		switch a.Kind {
		case "numeric":
			if !(a.Min <= a.Max) {
				return nil, fmt.Errorf("attribute %q: min %v > max %v", a.Name, a.Min, a.Max)
			}
			attrs[i] = dataset.Attribute{Name: a.Name, Kind: dataset.Numeric, Min: a.Min, Max: a.Max}
		case "categorical":
			if len(a.Values) == 0 {
				return nil, fmt.Errorf("attribute %q: categorical attribute needs values", a.Name)
			}
			attrs[i] = dataset.Attribute{Name: a.Name, Kind: dataset.Categorical, Values: a.Values}
		default:
			return nil, fmt.Errorf("attribute %q: unknown kind %q (want numeric or categorical)", a.Name, a.Kind)
		}
	}
	s := dataset.NewSchema(attrs...)
	if sj.Class != "" {
		i := s.AttrIndex(sj.Class)
		if i < 0 {
			return nil, fmt.Errorf("class attribute %q not in schema", sj.Class)
		}
		if attrs[i].Kind != dataset.Categorical {
			return nil, fmt.Errorf("class attribute %q must be categorical", sj.Class)
		}
		s.Class = i
	}
	return s, nil
}

// SessionConfig is the wire form of a session-creation request: which model
// class monitors the stream, its induction parameters, the window and
// emission policy (mirroring the core.Config options vocabulary), and the
// pinned reference data.
type SessionConfig struct {
	Name string `json:"name"`
	// Model is "lits", "dt" or "cluster".
	Model string `json:"model"`

	// Lits sessions: the item universe size (at most MaxNumItems) and
	// Apriori minimum support.
	NumItems   int     `json:"num_items,omitempty"`
	MinSupport float64 `json:"min_support,omitempty"`
	// Counter names a retired lits counting-backend knob ("auto", "trie"
	// or "bitmap"; empty = unset). It is accepted and validated, so stored
	// configs and peer exports that carry it still restore, and otherwise
	// ignored: the engine picks its backend from the input size alone.
	Counter string `json:"counter,omitempty"`

	// Dt and cluster sessions: the attribute space of the tuples.
	Schema *SchemaJSON `json:"schema,omitempty"`

	// Dt sessions: tree growth limits of the pinned tree (0 = defaults).
	MaxDepth int `json:"max_depth,omitempty"`
	MinLeaf  int `json:"min_leaf,omitempty"`
	// SplitSearch selects the numeric split-search engine growing the
	// pinned tree ("exact", "hist" or "auto"; empty = exact). The pinned
	// tree is grown once at session creation, so the knob only affects that
	// build. HistBins sets the quantile bin count of the hist engine
	// (0 = default).
	SplitSearch string `json:"split_search,omitempty"`
	HistBins    int    `json:"hist_bins,omitempty"`

	// Cluster sessions: grid attributes by name, bins per attribute and the
	// minimum cell density.
	GridAttrs  []string `json:"grid_attrs,omitempty"`
	GridBins   int      `json:"grid_bins,omitempty"`
	MinDensity float64  `json:"min_density,omitempty"`

	// Window policy (default: a sliding window of 1 batch).
	Window         int   `json:"window,omitempty"`
	Tumbling       bool  `json:"tumbling,omitempty"`
	EpochWindow    int64 `json:"epoch_window,omitempty"`
	PreviousWindow bool  `json:"previous_window,omitempty"`

	// Emission policy: difference function ("fa" or "fs", default "fa"),
	// aggregate ("sum" or "max", default "sum"), alert threshold, and
	// optional bootstrap qualification of every report.
	F           string  `json:"f,omitempty"`
	G           string  `json:"g,omitempty"`
	Threshold   float64 `json:"threshold,omitempty"`
	Qualify     bool    `json:"qualify,omitempty"`
	Replicates  int     `json:"replicates,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Parallelism int     `json:"parallelism,omitempty"`

	// Reference holds the pinned reference rows (same shape as a batch's
	// "rows"); required unless previous_window is set, and always required
	// for dt sessions, whose pinned tree is grown from it.
	Reference json.RawMessage `json:"reference,omitempty"`
}

// feedRequest is the wire form of a batch-ingest request. Rows of a lits
// session are arrays of item ids ([[0,3,7], ...]); rows of a dt or cluster
// session are objects mapping attribute names to values
// ([{"x": 1.5, "class": "A"}, ...], the JSONL row format).
type feedRequest struct {
	// Epoch optionally stamps the batch; it must not decrease across
	// batches and drives expiry for epoch_window sessions. Omitted: the
	// previous epoch + 1.
	Epoch *int64          `json:"epoch,omitempty"`
	Rows  json.RawMessage `json:"rows"`
}

// ReportJSON is the wire form of one monitor emission.
type ReportJSON struct {
	Seq       int     `json:"seq"`
	Epoch     int64   `json:"epoch"`
	Batches   int     `json:"batches"`
	N         int     `json:"n"`
	RefN      int     `json:"ref_n"`
	Regions   int     `json:"regions"`
	Deviation float64 `json:"deviation"`
	Alert     bool    `json:"alert"`
	// Significance is the bootstrap significance percentage, present when
	// the session qualifies its emissions.
	Significance *float64 `json:"significance,omitempty"`
}

// reportJSON converts a monitor report to its wire form.
func reportJSON(rep *stream.Report) *ReportJSON {
	if rep == nil {
		return nil
	}
	out := &ReportJSON{
		Seq:       rep.Seq,
		Epoch:     rep.Epoch,
		Batches:   rep.Batches,
		N:         rep.N,
		RefN:      rep.RefN,
		Regions:   rep.Regions,
		Deviation: rep.Deviation,
		Alert:     rep.Alert,
	}
	if rep.Qual != nil {
		sig := rep.Qual.Significance
		out.Significance = &sig
	}
	return out
}

// feedResponse is the wire form of a batch-ingest response. Report is null
// when the window policy suppressed emission (e.g. a tumbling window still
// filling).
type feedResponse struct {
	Report *ReportJSON `json:"report"`
}

// SessionState is the wire form of a session snapshot.
type SessionState struct {
	Name  string `json:"name"`
	Model string `json:"model"`
	// Epoch is the epoch of the most recent batch.
	Epoch int64 `json:"epoch"`
	// WindowBatches and WindowN describe the live window.
	WindowBatches int `json:"window_batches"`
	WindowN       int `json:"window_n"`
	// Reports counts emissions so far; Alerts counts those that alerted.
	Reports int `json:"reports"`
	Alerts  int `json:"alerts"`
	// LastReport is the most recent emission, if any.
	LastReport *ReportJSON `json:"last_report,omitempty"`
}

// reportsResponse is the wire form of the reports endpoint: the most recent
// emissions (bounded by the registry's retention), oldest first.
type reportsResponse struct {
	Reports []ReportJSON `json:"reports"`
	Alerts  int          `json:"alerts"`
}

// errorResponse is the wire form of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// tupleRowDecoder returns a batch decoder over s with the schema's decode
// tables built once per session, not per request.
func tupleRowDecoder(s *dataset.Schema) func(json.RawMessage) (*dataset.Dataset, error) {
	td := dataset.NewTupleDecoder(s)
	return func(raw json.RawMessage) (*dataset.Dataset, error) { return td.DecodeRows(raw) }
}

// decodeTxnRows decodes an array of item-id arrays into a transaction batch
// over numItems items.
func decodeTxnRows(numItems int, raw json.RawMessage) (*txn.Dataset, error) {
	var rows [][]int64
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("rows must be an array of item-id arrays: %w", err)
	}
	d := txn.New(numItems)
	for i, row := range rows {
		t := make(txn.Transaction, 0, len(row))
		for _, v := range row {
			if v < 0 || v >= int64(numItems) {
				return nil, fmt.Errorf("row %d: item %d outside universe [0,%d)", i, v, numItems)
			}
			t = append(t, txn.Item(v))
		}
		d.Txns = append(d.Txns, t.Normalize())
	}
	return d, nil
}
