// Package serve is the serving subsystem of the framework: a multi-tenant
// registry of named monitor sessions exposed as an HTTP/JSON API. Each
// session wraps one incremental windowed monitor (internal/stream) over one
// model class — lits, dt (pinned tree) or cluster — created with a pinned
// reference and a window/emission policy, fed batches of rows, and queried
// for reports, alerts and window state. Command focusd serves a Registry
// over HTTP; see Registry.Handler for the endpoint table.
//
// Sessions are independent and concurrency-safe: the registry serializes
// create/delete, each session serializes its own intake (on top of the
// monitor's own lock), and any number of clients may feed and query any
// number of sessions concurrently.
package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"focus/internal/apriori"
	"focus/internal/cluster"
	"focus/internal/core"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/stream"
	"focus/internal/txn"
)

// DefaultMaxReports is the number of recent reports a session retains for
// the reports endpoint.
const DefaultMaxReports = 256

// Registry is a multi-tenant collection of named monitor sessions. Create
// one with NewRegistry (in-memory) or OpenRegistry (durable); it is safe
// for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	sessions   map[string]*Session // guarded by mu
	reserved   map[string]struct{} // names mid-Create or mid-Delete (work outside the lock); guarded by mu
	maxReports int
	store      *Store // nil: sessions live and die with the process

	// draining is set when the process begins its shutdown drain: the
	// health endpoint answers 503 with Retry-After so routers and load
	// balancers stop sending new work before the listener closes.
	draining atomic.Bool
}

// SetDraining marks the registry as draining (or not): while set, the
// health endpoint answers 503 with a Retry-After header. focusd sets it
// when a shutdown signal arrives, before the HTTP server stops accepting
// connections.
func (r *Registry) SetDraining(v bool) { r.draining.Store(v) }

// Draining reports whether the registry is draining for shutdown.
func (r *Registry) Draining() bool { return r.draining.Load() }

// NewRegistry returns an empty in-memory registry retaining
// DefaultMaxReports recent reports per session.
func NewRegistry() *Registry {
	return &Registry{
		sessions:   make(map[string]*Session),
		reserved:   make(map[string]struct{}),
		maxReports: DefaultMaxReports,
	}
}

// Session is one named monitor session. Its intake and queries are safe for
// concurrent use.
type Session struct {
	name  string
	model string

	mu       sync.Mutex
	closed   bool // deleted: feeds and queries answer 404, nothing persists; guarded by mu
	draining bool // migration drain: feeds answer 503 with Retry-After until Resume; guarded by mu
	// cfgRaw pins the create-time config of an in-memory session so it
	// stays exportable for migration; durable sessions leave it nil and
	// read the config back from their on-disk snapshot instead (pinning it
	// here too would hold a second copy of the reference rows for the
	// session's lifetime). Guarded by mu.
	cfgRaw  json.RawMessage
	ingest  func(epoch *int64, rows json.RawMessage) (*stream.Report, error)
	state   func() (epoch int64, batches, n, reports int)
	last    *ReportJSON  // guarded by mu
	reports []ReportJSON // ring of recent emissions, oldest first; guarded by mu
	alerts  int          // guarded by mu
	max     int

	store *sessionStore // nil: in-memory session; guarded by mu
	// compacting is held from a compaction's seal, under mu, to the end of
	// its publish, outside mu: one publish in flight per session. Feed
	// takes it with TryLock, so a feed never waits on another's publish;
	// Delete and Close take it, so no publish outlives them.
	compacting sync.Mutex
	// exportMonitor and restoreMonitor bridge the generic monitor state to
	// its JSON snapshot form; bindSession installs them per model class.
	exportMonitor  func() (*monitorStateJSON, error)
	restoreMonitor func(*monitorStateJSON) error
}

// Name returns the session name.
func (s *Session) Name() string { return s.name }

// Model returns the session's model class name.
func (s *Session) Model() string { return s.model }

// Create validates cfg, builds the model class and monitor, and registers
// the session under cfg.Name. It fails with a client error (statusError 400)
// on any invalid configuration, schema, or reference payload, and with 409
// when the name is taken.
//
// The name is reserved under the registry lock before the expensive bind —
// growing a pinned DT tree or mining a lits reference can dwarf the
// request parse — so a duplicate create 409s immediately instead of
// burning a full model build first, and two racing creates of one name do
// the work exactly once. The bind itself runs outside the lock; the name
// is published on success and released on any failure.
func (r *Registry) Create(cfg SessionConfig) (*Session, error) {
	if err := validName(cfg.Name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if _, ok := r.sessions[cfg.Name]; ok {
		r.mu.Unlock()
		return nil, duplicate(cfg.Name)
	}
	if _, ok := r.reserved[cfg.Name]; ok {
		r.mu.Unlock()
		return nil, duplicate(cfg.Name)
	}
	r.reserved[cfg.Name] = struct{}{}
	r.mu.Unlock()
	unreserve := func() {
		r.mu.Lock()
		delete(r.reserved, cfg.Name)
		r.mu.Unlock()
	}

	s, err := r.bind(cfg)
	if err != nil {
		unreserve()
		return nil, err
	}
	if r.store != nil {
		ss, err := r.store.create(&cfg)
		if err != nil {
			unreserve()
			return nil, fmt.Errorf("persisting session %q: %w", cfg.Name, err)
		}
		// The session is not yet published, but install the store under its
		// lock anyway: the invariant "s.store moves only under s.mu" then
		// holds unconditionally instead of leaning on the publication
		// ordering through r.mu below.
		s.mu.Lock()
		s.store = ss
		s.mu.Unlock()
	} else {
		// In-memory sessions pin their config so Export can ship it during
		// a migration; durable sessions read it from the snapshot instead.
		if raw, err := json.Marshal(&cfg); err == nil {
			s.mu.Lock()
			s.cfgRaw = raw
			s.mu.Unlock()
		}
	}
	r.mu.Lock()
	delete(r.reserved, cfg.Name)
	r.sessions[cfg.Name] = s
	r.mu.Unlock()
	return s, nil
}

func duplicate(name string) error {
	return &statusError{code: 409, msg: fmt.Sprintf("session %q already exists", name)}
}

// bind builds the session's model class, monitor and codec closures from a
// validated-name config — the expensive part of Create, run outside the
// registry lock.
func (r *Registry) bind(cfg SessionConfig) (*Session, error) {
	s := &Session{name: cfg.Name, model: cfg.Model, max: r.maxReports}
	var err error
	switch cfg.Model {
	case "lits":
		err = bindLits(s, &cfg)
	case "dt":
		err = bindDT(s, &cfg)
	case "cluster":
		err = bindCluster(s, &cfg)
	default:
		return nil, badRequest(fmt.Sprintf("unknown model %q (want lits, dt or cluster)", cfg.Model))
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// validName admits names every per-session endpoint can address: URL-safe
// characters only, starting with a letter or digit (which also excludes
// the "." and ".." path segments ServeMux would clean away).
func validName(name string) error {
	if name == "" {
		return badRequest("session name required")
	}
	if len(name) > 128 {
		return badRequest("session name longer than 128 bytes")
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return badRequest("session name must start with a letter or digit")
		}
		if !alnum && c != '.' && c != '_' && c != '-' {
			return badRequest("session name may contain only letters, digits, '.', '_' and '-'")
		}
	}
	return nil
}

// Get returns the named session.
func (r *Registry) Get(name string) (*Session, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sessions[name]
	return s, ok
}

// deleteHook, when set, runs in Delete between the session's removal from
// the registry and the removal of its directory; tests use it to race a
// same-name Create into that window.
var deleteHook func()

// Delete removes the named session, reporting whether it existed. The
// session is closed under its own lock before its durable state is
// removed, so an in-flight Feed either completes entirely before the
// delete or observes the closed flag and 404s — a feed can never mutate
// the monitor, the report ring, or the write-ahead log of a deleted
// session. The name stays reserved until the directory is gone, so a
// same-name Create or Import racing the delete answers 409 instead of
// writing files the removal would then wipe.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	s, ok := r.sessions[name]
	if ok {
		delete(r.sessions, name)
		r.reserved[name] = struct{}{}
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	if deleteHook != nil {
		deleteHook()
	}
	// Holding compacting waits out an in-flight publish and keeps a later
	// one from starting, so nothing writes into the directory once it is
	// removed.
	s.compacting.Lock()
	s.close()
	if r.store != nil {
		r.store.remove(name)
	}
	s.compacting.Unlock()
	r.mu.Lock()
	delete(r.reserved, name)
	r.mu.Unlock()
	return true
}

// close marks the session deleted and releases its durable state handle.
func (s *Session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.store != nil {
		s.store.close()
		s.store = nil
	}
}

// Close flushes and closes the durable state of every session. It is the
// graceful-shutdown hook of a durable registry (focusd calls it after the
// HTTP server drains); sessions refuse intake afterwards. In-memory
// registries have nothing to flush.
func (r *Registry) Close() error {
	r.mu.Lock()
	// Flush in sorted name order: shutdown work (WAL flushes, future
	// per-session close hooks) then runs in a deterministic order rather
	// than the randomized map iteration order.
	names := make([]string, 0, len(r.sessions))
	for name := range r.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	sessions := make([]*Session, 0, len(names))
	for _, name := range names {
		sessions = append(sessions, r.sessions[name])
	}
	r.mu.Unlock()
	for _, s := range sessions {
		// Wait out an in-flight publish, as Delete does.
		s.compacting.Lock()
		s.close()
		s.compacting.Unlock()
	}
	return nil
}

// Names returns the registered session names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.sessions))
	for name := range r.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// monitorConfig assembles the monitor configuration shared by every model
// class. The window policy defaults to a sliding window of one batch:
// every batch emits a report against the pinned reference.
func monitorConfig(cfg *SessionConfig) (core.Config, error) {
	f, g := cfg.F, cfg.G
	if f == "" {
		f = "fa"
	}
	if g == "" {
		g = "sum"
	}
	df, err := core.DiffByName(f)
	if err != nil {
		return core.Config{}, badRequest(err.Error())
	}
	ag, err := core.AggByName(g)
	if err != nil {
		return core.Config{}, badRequest(err.Error())
	}
	window := cfg.Window
	if window == 0 && cfg.EpochWindow == 0 {
		window = 1
	}
	return core.Config{
		F:              df,
		G:              ag,
		Parallelism:    cfg.Parallelism,
		WindowBatches:  window,
		Tumbling:       cfg.Tumbling,
		EpochWindow:    cfg.EpochWindow,
		PreviousWindow: cfg.PreviousWindow,
		Threshold:      cfg.Threshold,
		Qualify:        cfg.Qualify,
		Replicates:     cfg.Replicates,
		Seed:           cfg.Seed,
	}, nil
}

// bindSession wires a monitor of any model class into the session's
// dynamically-typed intake, state and persistence closures — the one
// generic-to-JSON boundary of the serving layer. decode turns wire rows
// into a batch; encode is its inverse (rows that decode back to a
// bit-identical batch), used to snapshot window state during compaction.
func bindSession[D, M any](s *Session, mc core.ModelClass[D, M], ref D, hasRef bool, mcfg core.Config, decode func(json.RawMessage) (D, error), encode func(D) (json.RawMessage, error)) error {
	if !hasRef && !mcfg.PreviousWindow {
		return badRequest("reference rows required unless previous_window is set")
	}
	if hasRef && mc.Len(ref) == 0 {
		return badRequest("reference rows must be non-empty")
	}
	mon, err := stream.New(mc, ref, mcfg)
	if err != nil {
		return badRequest(err.Error())
	}
	s.ingest = func(epoch *int64, rows json.RawMessage) (*stream.Report, error) {
		batch, err := decode(rows)
		if err != nil {
			return nil, badRequest(err.Error())
		}
		// An empty batch would read as maximal drift (every region's window
		// measure 0); a heartbeat or buggy producer gets a 400, not an
		// alert.
		if mc.Len(batch) == 0 {
			return nil, badRequest("rows must hold at least one row")
		}
		if epoch != nil {
			rep, err := mon.IngestEpoch(*epoch, batch)
			if err != nil {
				return nil, badRequest(err.Error())
			}
			return rep, nil
		}
		rep, err := mon.Ingest(batch)
		if err != nil {
			return nil, badRequest(err.Error())
		}
		return rep, nil
	}
	s.state = func() (int64, int, int, int) {
		return mon.Epoch(), mon.WindowBatches(), mon.WindowN(), mon.Reports()
	}
	s.exportMonitor = func() (*monitorStateJSON, error) {
		st := mon.ExportState()
		out := &monitorStateJSON{Epoch: st.Epoch, Seq: st.Seq, Epochs: st.Epochs}
		for _, b := range st.Batches {
			raw, err := encode(b)
			if err != nil {
				return nil, err
			}
			out.Batches = append(out.Batches, raw)
		}
		if st.RefPromoted {
			raw, err := encode(st.RefData)
			if err != nil {
				return nil, err
			}
			out.RefRows = raw
		}
		return out, nil
	}
	s.restoreMonitor = func(ms *monitorStateJSON) error {
		st := stream.MonitorState[D]{Epoch: ms.Epoch, Seq: ms.Seq, Epochs: ms.Epochs}
		for i, raw := range ms.Batches {
			b, err := decode(raw)
			if err != nil {
				return fmt.Errorf("window batch %d: %w", i, err)
			}
			st.Batches = append(st.Batches, b)
		}
		if len(ms.RefRows) > 0 {
			d, err := decode(ms.RefRows)
			if err != nil {
				return fmt.Errorf("reference window: %w", err)
			}
			st.RefPromoted, st.RefData = true, d
		}
		return mon.RestoreState(st)
	}
	return nil
}

// MaxNumItems bounds a lits session's item universe, as cluster.MaxCells
// bounds a grid: a window keeps a pass-1 vector of num_items counts, and
// its batch scans allocate more (and a 4-byte index slot per item), so
// 2^20 items keep each vector at 8 MB instead of letting one create
// request size them.
const MaxNumItems = 1 << 20

func bindLits(s *Session, cfg *SessionConfig) error {
	if cfg.NumItems < 1 || cfg.NumItems > MaxNumItems {
		return badRequest(fmt.Sprintf("lits session requires num_items in [1, %d]", MaxNumItems))
	}
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return badRequest("lits session requires min_support in (0, 1]")
	}
	// The counter field names a retired backend knob; stored configs still
	// carry it, so it is validated and otherwise ignored.
	if _, err := apriori.ParseCounter(cfg.Counter); err != nil {
		return badRequest(err.Error())
	}
	mcfg, err := monitorConfig(cfg)
	if err != nil {
		return err
	}
	// Capture only the universe size: closing over cfg would pin the whole
	// create payload (including the raw Reference bytes) for the session's
	// lifetime.
	numItems := cfg.NumItems
	decode := func(raw json.RawMessage) (*txn.Dataset, error) {
		return decodeTxnRows(numItems, raw)
	}
	var ref *txn.Dataset
	if len(cfg.Reference) > 0 {
		if ref, err = decode(cfg.Reference); err != nil {
			return badRequest(fmt.Sprintf("reference: %v", err))
		}
	}
	return bindSession(s, core.Lits(cfg.MinSupport), ref, ref != nil, mcfg, decode, encodeTxnRows)
}

func bindDT(s *Session, cfg *SessionConfig) error {
	schema, err := cfg.Schema.Schema()
	if err != nil {
		return badRequest(err.Error())
	}
	if schema.Class < 0 {
		return badRequest("dt session requires a class attribute in the schema")
	}
	mcfg, err := monitorConfig(cfg)
	if err != nil {
		return err
	}
	decode := tupleRowDecoder(schema)
	if len(cfg.Reference) == 0 {
		return badRequest("dt session requires reference rows (the pinned tree is grown from them)")
	}
	ref, err := decode(cfg.Reference)
	if err != nil {
		return badRequest(fmt.Sprintf("reference: %v", err))
	}
	search, err := dtree.ParseSplitSearch(cfg.SplitSearch)
	if err != nil {
		return badRequest(err.Error())
	}
	tree, err := dtree.BuildP(ref, dtree.Config{
		MaxDepth:    cfg.MaxDepth,
		MinLeaf:     cfg.MinLeaf,
		SplitSearch: search,
		HistBins:    cfg.HistBins,
	}, cfg.Parallelism)
	if err != nil {
		return badRequest(fmt.Sprintf("growing pinned tree: %v", err))
	}
	return bindSession(s, core.PinnedDT(tree), ref, true, mcfg, decode, encodeTupleRows)
}

func bindCluster(s *Session, cfg *SessionConfig) error {
	schema, err := cfg.Schema.Schema()
	if err != nil {
		return badRequest(err.Error())
	}
	if len(cfg.GridAttrs) == 0 {
		return badRequest("cluster session requires grid_attrs")
	}
	attrs := make([]int, len(cfg.GridAttrs))
	for i, name := range cfg.GridAttrs {
		j := schema.AttrIndex(name)
		if j < 0 {
			return badRequest(fmt.Sprintf("unknown grid attribute %q", name))
		}
		attrs[i] = j
	}
	bins := cfg.GridBins
	if bins == 0 {
		bins = 8
	}
	grid, err := cluster.NewGrid(schema, attrs, bins)
	if err != nil {
		return badRequest(err.Error())
	}
	mcfg, err := monitorConfig(cfg)
	if err != nil {
		return err
	}
	decode := tupleRowDecoder(schema)
	var ref *dataset.Dataset
	if len(cfg.Reference) > 0 {
		if ref, err = decode(cfg.Reference); err != nil {
			return badRequest(fmt.Sprintf("reference: %v", err))
		}
	}
	return bindSession(s, core.Cluster(grid, cfg.MinDensity), ref, ref != nil, mcfg, decode, encodeTupleRows)
}

// Feed ingests one batch into the session and returns the emitted report
// (nil when the window policy suppresses emission). Feeds are serialized
// per session, so retained reports appear in emission order. In a durable
// session the batch is appended to the write-ahead log before ingestion —
// a crash after the acknowledgement can always replay it — and the WAL is
// compacted into a fresh snapshot once the replay debt crosses the
// registry's threshold: the state is sealed under the session lock and the
// snapshot published after it is released, before Feed returns. A deleted
// session answers 404.
//
//lint:wal-before-ingest
func (s *Session) Feed(epoch *int64, rows json.RawMessage) (*ReportJSON, error) {
	var sealed *compaction
	// Deferred first, so it runs after the unlock below.
	defer func() {
		if sealed != nil {
			sealed.publish()
			s.compacting.Unlock()
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, notFound(s.name)
	}
	if s.draining {
		return nil, drainingError(fmt.Sprintf("session %q is draining for migration", s.name))
	}
	if s.store != nil {
		if err := s.store.appendFeed(epoch, rows); err != nil {
			return nil, fmt.Errorf("persisting batch: %w", err)
		}
	}
	rj, err := s.feedLocked(epoch, rows)
	if err != nil {
		return nil, err
	}
	if s.store != nil && s.store.shouldCompact() && s.compacting.TryLock() {
		// Best-effort: the feed is already durable in the WAL, so a failed
		// compaction degrades replay time, never correctness; the next
		// feed retries. So does the next feed when a publish is still in
		// flight.
		if sealed = s.sealLocked(); sealed == nil {
			s.compacting.Unlock()
		}
	}
	return rj, nil
}

// feedLocked runs the intake and report-ring update shared by Feed and WAL
// replay; callers hold s.mu.
//
//lint:holds mu
func (s *Session) feedLocked(epoch *int64, rows json.RawMessage) (*ReportJSON, error) {
	rep, err := s.ingest(epoch, rows)
	if err != nil {
		return nil, err
	}
	rj := reportJSON(rep)
	if rj != nil {
		s.last = rj
		if rj.Alert {
			s.alerts++
		}
		s.reports = append(s.reports, *rj)
		if len(s.reports) > s.max {
			s.reports = s.reports[len(s.reports)-s.max:]
		}
	}
	return rj, nil
}

// State snapshots the session; a deleted session answers 404.
func (s *Session) State() (SessionState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SessionState{}, notFound(s.name)
	}
	epoch, batches, n, reports := s.state()
	st := SessionState{
		Name:          s.name,
		Model:         s.model,
		Epoch:         epoch,
		WindowBatches: batches,
		WindowN:       n,
		Reports:       reports,
		Alerts:        s.alerts,
	}
	if s.last != nil {
		cp := *s.last
		st.LastReport = &cp
	}
	return st, nil
}

// Reports returns the retained recent reports (oldest first) and the total
// alert count; a deleted session answers 404.
func (s *Session) Reports() ([]ReportJSON, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, notFound(s.name)
	}
	out := make([]ReportJSON, len(s.reports))
	copy(out, s.reports)
	return out, s.alerts, nil
}
