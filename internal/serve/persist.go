package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"focus/internal/dataset"
	"focus/internal/txn"
	"focus/internal/wal"
)

// This file is the durability layer of the registry: per-session snapshots
// plus a write-ahead log, compacted in generations, replayed on boot.
//
// Layout under the data directory:
//
//	<data>/sessions/<name>/snapshot.json   config + (after compaction) state
//	<data>/sessions/<name>/wal.<gen>.log   batches fed since the snapshot
//
// A session's durable state is always a snapshot plus the WAL generation
// it names and every consecutive later generation: Create writes a
// config-only snapshot and an empty generation-1 WAL; every Feed appends
// its batch to the current generation before ingestion. Compaction runs in
// two steps. The feed that crosses the threshold seals under the session
// lock: it exports the monitor's window state, copies the report ring and
// counters, and rotates the WAL to generation N+1. Then, after releasing
// the lock, the same feed publishes: it writes the snapshot carrying the
// sealed state and naming N+1, and only then removes the generations below
// N+1. Reads and further feeds (appending to N+1) proceed while the
// snapshot is written and fsynced; a per-session compaction mutex keeps
// one publish in flight, and Delete and Close wait for it. Recovery
// rebuilds the session from the snapshot (bind from config, reinstate
// window state) and replays the snapshot's generation and every
// consecutive later one through the normal intake path — deterministic,
// so the restored session's State and Reports are bit-identical to an
// uninterrupted run.
//
// Crash windows resolve by the write order. A crash between seal and
// publish leaves the old snapshot, its generation N and generation N+1
// holding the feeds acknowledged since the seal: recovery replays both. A
// crash after the snapshot rename leaves generations below the one it
// names, which the boot sweep removes along with any other generation
// outside the replayed run. Data directories written before compaction
// was split hold the named generation plus at most an empty N+1, so they
// restore unchanged. Snapshots are written to a temporary file, fsynced
// and renamed, so a torn snapshot write leaves the previous one intact.
// WAL appends reach the kernel before the feed is acknowledged, so a
// SIGKILL never loses an acknowledged batch; torn trailing records from a
// crashed append are dropped by wal.Open.

// snapshotVersion is the on-disk snapshot format version.
const snapshotVersion = 1

// snapshotFile is the per-session snapshot name.
const snapshotFile = "snapshot.json"

// DefaultCompactEvery is the default WAL replay debt, in records, at which
// a session compacts its log into a fresh snapshot.
const DefaultCompactEvery = 256

// Store roots the durable state of a registry. Open one through
// OpenRegistry.
type Store struct {
	dir          string
	compactEvery int
}

// sessionStore is one session's durable state handle. Its methods are
// called under the session lock, which is what guards the mutable fields
// below (the store itself has no lock of its own).
type sessionStore struct {
	dir          string
	gen          uint64      // guarded by Session.mu
	w            *wal.Writer // guarded by Session.mu
	records      int         // WAL records since the last seal; guarded by Session.mu
	compactEvery int
}

// snapshotJSON is the on-disk snapshot: the session's create config
// (verbatim, so the model class is rebuilt deterministically) and — once a
// compaction has run — the monitor window state and report ring at the
// point the WAL was resealed.
type snapshotJSON struct {
	Version int `json:"version"`
	// WALGen names the WAL generation holding the feeds after this
	// snapshot.
	WALGen  uint64            `json:"wal_gen"`
	Config  json.RawMessage   `json:"config"`
	Monitor *monitorStateJSON `json:"monitor,omitempty"`
	Reports []ReportJSON      `json:"reports,omitempty"`
	Alerts  int               `json:"alerts,omitempty"`
	Last    *ReportJSON       `json:"last,omitempty"`
}

// monitorStateJSON is the wire form of stream.MonitorState: window batches
// as row payloads in the session's own rows format.
type monitorStateJSON struct {
	Epoch   int64             `json:"epoch"`
	Seq     int               `json:"seq"`
	Epochs  []int64           `json:"epochs,omitempty"`
	Batches []json.RawMessage `json:"batches,omitempty"`
	RefRows json.RawMessage   `json:"ref_rows,omitempty"`
}

// walRecord is one logged feed, exactly the fields of the feed request.
type walRecord struct {
	Epoch *int64          `json:"epoch,omitempty"`
	Rows  json.RawMessage `json:"rows"`
}

// OpenRegistry opens (initializing if empty) a durable registry rooted at
// dir, restoring every persisted session by rebuilding it from its
// snapshot and replaying its WAL. compactEvery is the per-session WAL
// record count that triggers compaction (<= 0 uses DefaultCompactEvery).
// Sessions that fail to restore are skipped — their files are left on disk
// for inspection — and reported in warnings; the registry itself opens as
// long as the directory is usable.
func OpenRegistry(dir string, compactEvery int) (r *Registry, warnings []error, err error) {
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	r = NewRegistry()
	r.store = &Store{dir: dir, compactEvery: compactEvery}
	root := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, err
	}
	// Deterministic restore order (ReadDir sorts, but make it explicit).
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if err := r.restoreSession(filepath.Join(root, e.Name())); err != nil {
			warnings = append(warnings, fmt.Errorf("session %q: %w", e.Name(), err))
		}
	}
	return r, warnings, nil
}

// restoreSession rebuilds one session from its directory and publishes it.
func (r *Registry) restoreSession(dir string) error {
	snap, err := readSnapshot(dir)
	if err != nil {
		return fmt.Errorf("reading snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("snapshot version %d not supported", snap.Version)
	}
	var cfg SessionConfig
	if err := json.Unmarshal(snap.Config, &cfg); err != nil {
		return fmt.Errorf("decoding session config: %w", err)
	}
	if err := validName(cfg.Name); err != nil {
		return err
	}
	if cfg.Name != filepath.Base(dir) {
		return fmt.Errorf("snapshot names session %q", cfg.Name)
	}

	s, err := r.bind(cfg)
	if err != nil {
		return fmt.Errorf("rebinding: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap.Monitor != nil {
		if err := s.restoreMonitor(snap.Monitor); err != nil {
			return fmt.Errorf("restoring window state: %w", err)
		}
	}
	s.reports, s.alerts, s.last = snap.Reports, snap.Alerts, snap.Last

	// Replay the named generation, then every consecutive later one: a
	// compaction that sealed (rotated to a new generation) but crashed
	// before publishing its snapshot leaves acknowledged feeds there.
	gen, records := snap.WALGen, 0
	var w *wal.Writer
	for {
		gw, recs, err := wal.Open(walPath(dir, gen))
		if err != nil {
			return fmt.Errorf("opening wal generation %d: %w", gen, err)
		}
		for i, rec := range recs {
			var wr walRecord
			if err := json.Unmarshal(rec, &wr); err != nil {
				// Undecodable payloads cannot have been written by
				// appendFeed; treat like wal corruption: stop replaying.
				gw.Close()
				return fmt.Errorf("wal generation %d record %d: %w", gen, i, err)
			}
			// Replay through the normal intake path. A record that fails
			// here failed identically when it was first fed (the WAL is
			// written before ingestion), so a replay failure
			// re-establishes, not diverges from, the pre-crash state.
			s.feedLocked(wr.Epoch, wr.Rows) //nolint:errcheck
		}
		records += len(recs)
		if _, err := os.Stat(walPath(dir, gen+1)); err != nil {
			w = gw
			break
		}
		gw.Close()
		gen++
	}
	removeStaleWALs(dir, snap.WALGen, gen)
	s.store = &sessionStore{
		dir:          dir,
		gen:          gen,
		w:            w,
		records:      records,
		compactEvery: r.store.compactEvery,
	}
	// A boot that replayed a long log compacts immediately, so the next
	// boot starts from the resealed snapshot. The session is not yet
	// published, so nothing contends for the lock or the publish.
	if s.store.shouldCompact() {
		s.compacting.Lock()
		if c := s.sealLocked(); c != nil {
			c.publish()
		}
		s.compacting.Unlock()
	}

	r.mu.Lock()
	r.sessions[cfg.Name] = s
	r.mu.Unlock()
	return nil
}

// sessionDir is the directory of one session's durable state.
func (st *Store) sessionDir(name string) string {
	return filepath.Join(st.dir, "sessions", name)
}

// create initializes the durable state of a new session: its directory, a
// config-only snapshot, and an empty generation-1 WAL. Stale files from a
// crashed earlier incarnation of the name are swept first.
func (st *Store) create(cfg *SessionConfig) (*sessionStore, error) {
	rawCfg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	snap := snapshotJSON{Version: snapshotVersion, WALGen: 1, Config: rawCfg}
	return st.createFromSnapshot(cfg.Name, &snap)
}

// createFromSnapshot initializes a session's durable state from a full
// snapshot — create's config-only case and Import's sealed-state case
// share it. The snapshot must name WAL generation 1; stale files from a
// crashed earlier incarnation of the name are swept first.
func (st *Store) createFromSnapshot(name string, snap *snapshotJSON) (*sessionStore, error) {
	dir := st.sessionDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	removeStaleWALs(dir, 1, 0)
	if err := writeSnapshot(dir, snap); err != nil {
		return nil, err
	}
	w, recs, err := wal.Open(walPath(dir, snap.WALGen))
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		// Cannot happen: the sweep above removed every generation.
		w.Close()
		return nil, fmt.Errorf("fresh wal for %q holds %d records", name, len(recs))
	}
	return &sessionStore{dir: dir, gen: snap.WALGen, w: w, compactEvery: st.compactEvery}, nil
}

// readSnapshot reads the current on-disk snapshot of the session at dir.
func readSnapshot(dir string) (*snapshotJSON, error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	var snap snapshotJSON
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// remove deletes the named session's durable state.
func (st *Store) remove(name string) {
	os.RemoveAll(st.sessionDir(name))
}

// appendFeed logs one feed ahead of its ingestion.
//
//lint:holds Session.mu
func (ss *sessionStore) appendFeed(epoch *int64, rows json.RawMessage) error {
	if ss.w == nil {
		return fmt.Errorf("wal unavailable")
	}
	rec, err := json.Marshal(walRecord{Epoch: epoch, Rows: rows})
	if err != nil {
		return err
	}
	if err := ss.w.Append(rec); err != nil {
		return err
	}
	ss.records++
	return nil
}

// shouldCompact reports whether the WAL replay debt crossed the threshold.
//
//lint:holds Session.mu
func (ss *sessionStore) shouldCompact() bool {
	return ss.records >= ss.compactEvery
}

// close flushes and closes the WAL.
//
//lint:holds Session.mu
func (ss *sessionStore) close() {
	if ss.w != nil {
		ss.w.Close()
		ss.w = nil
	}
}

// compaction is one sealed compaction awaiting publication: the
// snapshot of the session's state at the seal, naming the WAL generation
// the seal rotated to. Its config is filled in by publish.
type compaction struct {
	dir  string
	snap snapshotJSON
}

// sealLocked seals the session's state for compaction — the monitor's
// window state, a copy of the report ring and counters — and rotates the
// WAL to the next generation, so feeds after the seal land in the log the
// new snapshot will name. Callers hold s.mu and s.compacting, and hand the
// result to publish once s.mu is released. On failure (nil) nothing has
// changed: the log keeps growing until a later compaction succeeds.
//
//lint:holds mu Session.mu
func (s *Session) sealLocked() *compaction {
	ss := s.store
	ms, err := s.exportMonitor()
	if err != nil {
		return nil
	}
	newGen := ss.gen + 1
	nw, recs, err := wal.Open(walPath(ss.dir, newGen))
	if err != nil {
		return nil
	}
	if len(recs) > 0 {
		// A stale file no recovery replayed: start it over.
		nw.Close()
		if err := os.Remove(walPath(ss.dir, newGen)); err != nil {
			return nil
		}
		if nw, _, err = wal.Open(walPath(ss.dir, newGen)); err != nil {
			return nil
		}
	}
	ss.w.Close()
	ss.gen, ss.w, ss.records = newGen, nw, 0
	c := &compaction{dir: ss.dir, snap: snapshotJSON{
		Version: snapshotVersion,
		WALGen:  newGen,
		Monitor: ms,
		Reports: slices.Clone(s.reports),
		Alerts:  s.alerts,
	}}
	if s.last != nil {
		last := *s.last
		c.snap.Last = &last
	}
	return c
}

// publishHook, when set, runs at the start of every publish; tests use it
// to hold a publish in flight.
var publishHook func()

// publish writes the sealed snapshot and then removes the WAL generations
// it supersedes. Callers hold the session's compacting mutex but not its
// lock. The config travels snapshot to snapshot as raw bytes, read back
// from the current snapshot rather than pinned in memory for the session's
// lifetime. Best-effort: a failure leaves the previous snapshot and every
// generation from the one it names onward, which recovery replays in full.
func (c *compaction) publish() {
	if publishHook != nil {
		publishHook()
	}
	prev, err := readSnapshot(c.dir)
	if err != nil {
		return
	}
	c.snap.Config = prev.Config
	if err := writeSnapshot(c.dir, &c.snap); err != nil {
		return
	}
	removeStaleWALs(c.dir, c.snap.WALGen, math.MaxUint64)
}

// writeSnapshot atomically replaces the session snapshot: temp file,
// fsync, rename.
func writeSnapshot(dir string, snap *snapshotJSON) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, snapshotFile+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, filepath.Join(dir, snapshotFile)); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// walPath names a WAL generation file.
func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal.%06d.log", gen))
}

// removeStaleWALs sweeps WAL generations outside [lo, hi] (lo > hi keeps
// none) and leftover snapshot temp files.
func removeStaleWALs(dir string, lo, hi uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		stale := strings.HasPrefix(name, snapshotFile+".tmp-")
		if num, ok := strings.CutPrefix(name, "wal."); ok {
			if num, ok = strings.CutSuffix(num, ".log"); ok {
				gen, err := strconv.ParseUint(num, 10, 64)
				stale = err != nil || gen < lo || gen > hi
			}
		}
		if stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// encodeTxnRows renders a transaction batch in the lits rows wire format
// ([[id, ...], ...]); decodeTxnRows reads it back bit-identically (the
// retained transactions are already normalized).
func encodeTxnRows(d *txn.Dataset) (json.RawMessage, error) {
	if len(d.Txns) == 0 {
		return json.RawMessage("[]"), nil
	}
	return json.Marshal(d.Txns)
}

// encodeTupleRows renders a tuple batch in the dt/cluster rows wire format
// ([{attr: value, ...}, ...]) using the exact per-row rendering of
// WriteJSONL — categorical values by name, numeric values at full float64
// precision — so tupleRowDecoder reads it back bit-identically.
func encodeTupleRows(d *dataset.Dataset) (json.RawMessage, error) {
	var b bytes.Buffer
	if err := d.WriteJSONL(&b); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimRight(b.Bytes(), "\n"), []byte{'\n'})
	out := make([]byte, 0, b.Len()+len(lines)+2)
	out = append(out, '[')
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, line...)
	}
	out = append(out, ']')
	return out, nil
}
