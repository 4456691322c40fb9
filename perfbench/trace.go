package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"focus/internal/classgen"
	"focus/internal/dataset"
	"focus/internal/experiments"
	"focus/internal/serve"
	"focus/internal/stream"
	"focus/internal/wal"
)

// Tolerances of the traced run's layer-sum checks, as shares of the span
// the layers must add up to.
const (
	// serveSumTolerance: wire self + rows decode + persist + ingest against
	// the member handler span. The parts are medians of per-feed
	// differences, so they add up to the handler median only up to noise.
	serveSumTolerance = 0.15
	// coreSumTolerance: the core steps against stream.ingest, two separate
	// runs of the same bootstrap whose per-call times vary by tens of
	// percent on a shared host. The monitor also expires batches and
	// builds the report around the steps.
	coreSumTolerance = 0.20
)

// chainTrace is the sequential per-feed replay of a stream through every
// serving layer: the member handler (A), a durable Session.Feed (B), an
// in-memory Session.Feed (C), stream.Monitor.IngestEpoch of the typed batch
// (D) and the monitor's core steps (E). Each stage holds its own state fed
// the same batches, so per-feed differences isolate one layer each.
type chainTrace struct {
	handler, durable, inmem, ingest []float64 // ms per feed, aligned
	feedAlloc, ingestAlloc          []float64 // KB per feed
	add, induce, gcr                []float64
	qualify                         []float64 // NaN where no bootstrap was measured
	sess                            []int     // session index of each feed
	regions, frequent               []float64
	compactMS, snapshotBytes        []float64
	replayMS                        float64
	ref                             map[string][]byte // C's reports: the single-node reference
	durableDir                      string
	walDir                          string   // hard links to every WAL generation B wrote
	walLogs                         []string // those links, in the order B created them
	walFeeds, walRowBytes           int      // B's acknowledged feeds and their row bytes
	attempted, failed               int
	firstErr                        error
}

func (c *chainTrace) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// runTraced replays the first of the workload's seeded streams in-process
// through each layer's public functions and reports the per-layer metrics.
func runTraced(ctx context.Context, o options, w workload) (*result, error) {
	sessions, err := w.sessions(streamSeed(o.seed, 0))
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	ch, err := traceChain(o, sessions)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.firstErr = ch.attempted, ch.failed, ch.firstErr

	// The fleet twice on identical inputs: spans off, then on. The
	// difference in client feed p50 is the tracing overhead.
	plain, err := traceFleet(ctx, w, sessions, ch.ref, filepath.Join(o.work, "fleet-plain"), false)
	if err != nil {
		return nil, err
	}
	traced, err := traceFleet(ctx, w, sessions, ch.ref, filepath.Join(o.work, "fleet-traced"), true)
	if err != nil {
		return nil, err
	}
	for _, ft := range []fleetTrace{plain, traced} {
		res.Attempted += ft.attempted
		res.Failed += ft.fails
		if ft.firstErr != nil && res.firstErr == nil {
			res.firstErr = ft.firstErr
		}
	}
	if err := setFleetMetrics(res, traced); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("tracing overhead: traced minus untraced feed p50 = %.4f ms (%.4f vs %.4f ms, in-process fleet)",
		median(traced.drive.feedMS)-median(plain.drive.feedMS), median(traced.drive.feedMS), median(plain.drive.feedMS)))

	if err := setChainMetrics(res, ch); err != nil {
		return nil, err
	}
	if err := traceWAL(res, ch, o.work); err != nil {
		return nil, err
	}
	if err := traceDtree(res, sessions, o.seed); err != nil {
		return nil, err
	}
	if err := traceExperiments(res, w); err != nil {
		return nil, err
	}
	checkLayerSums(res, o.workload, sessions, ch)
	res.Correct = res.Failed == 0
	return res, nil
}

// traceChain runs every feed of every session through stages A to E, one
// feed at a time, then reopens B's data directory.
func traceChain(o options, sessions []sessionInput) (*chainTrace, error) {
	ch := &chainTrace{
		durableDir: filepath.Join(o.work, "chain-durable"),
		walDir:     filepath.Join(o.work, "chain-wal"),
		ref:        map[string][]byte{},
	}
	if err := os.MkdirAll(ch.walDir, 0o755); err != nil {
		return nil, err
	}
	regA, _, err := serve.OpenRegistry(filepath.Join(o.work, "chain-handler"), compactEvery)
	if err != nil {
		return nil, err
	}
	defer regA.Close()
	hA := regA.Handler()
	regB, _, err := serve.OpenRegistry(ch.durableDir, compactEvery)
	if err != nil {
		return nil, err
	}
	regC := serve.NewRegistry()
	hC := regC.Handler()

	type stages struct {
		b, c    *serve.Session
		typed   typedReplay
		gen     uint64
		sessDir string
	}
	st := make([]stages, len(sessions))
	for i := range sessions {
		s := &sessions[i]
		if _, err := serveLocal(hA, http.MethodPost, "/v1/sessions", s.create); err != nil {
			return nil, err
		}
		if st[i].b, err = regB.Create(s.cfg); err != nil {
			return nil, err
		}
		if _, err := serveLocal(hC, http.MethodPost, "/v1/sessions", s.create); err != nil {
			return nil, err
		}
		var ok bool
		if st[i].c, ok = regC.Get(s.name); !ok {
			return nil, fmt.Errorf("session %s missing after create", s.name)
		}
		if st[i].typed, err = newTypedReplay(s); err != nil {
			return nil, err
		}
		st[i].sessDir = filepath.Join(ch.durableDir, "sessions", s.name)
		gen, path := walLog(st[i].sessDir)
		st[i].gen = gen
		if err := ch.keepLog(s.name, gen, path); err != nil {
			return nil, err
		}
	}

	for b := range sessions[0].feeds {
		for i := range sessions {
			s, x := &sessions[i], &st[i]
			epoch, rows, err := splitFeed(s.feeds[b])
			if err != nil {
				return nil, err
			}
			rowsC := append(json.RawMessage(nil), rows...)
			ch.attempted += 5

			// A: the member handler.
			req, rec := newLocalRequest(http.MethodPost, "/v1/sessions/"+s.name+"/batches", s.feeds[b])
			t := time.Now()
			hA.ServeHTTP(rec, req)
			ch.handler = append(ch.handler, ms(time.Since(t)))
			if rec.Code != http.StatusOK {
				ch.fail(fmt.Errorf("handler feed %s batch %d: status %d", s.name, b, rec.Code))
			}

			// B: durable Session.Feed.
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t = time.Now()
			repB, err := x.b.Feed(epoch, rows)
			spanB := ms(time.Since(t))
			runtime.ReadMemStats(&m1)
			if err != nil {
				ch.fail(fmt.Errorf("durable feed %s batch %d: %w", s.name, b, err))
			} else {
				ch.walFeeds++
				ch.walRowBytes += s.rowBytes[b]
			}
			ch.durable = append(ch.durable, spanB)
			ch.feedAlloc = append(ch.feedAlloc, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
			if g, path := walLog(x.sessDir); g != x.gen {
				x.gen = g
				if err := ch.keepLog(s.name, g, path); err != nil {
					return nil, err
				}
				ch.compactMS = append(ch.compactMS, spanB)
				if fi, err := os.Stat(filepath.Join(x.sessDir, "snapshot.json")); err == nil {
					ch.snapshotBytes = append(ch.snapshotBytes, float64(fi.Size()))
				}
			}

			// C: in-memory Session.Feed.
			t = time.Now()
			repC, err := x.c.Feed(epoch, rowsC)
			ch.inmem = append(ch.inmem, ms(time.Since(t)))
			if err != nil {
				ch.fail(fmt.Errorf("in-memory feed %s batch %d: %w", s.name, b, err))
			}

			// D: the monitor on the typed batch.
			span, alloc, repD, err := x.typed.ingest(b)
			if err != nil {
				return nil, fmt.Errorf("monitor ingest %s batch %d: %w", s.name, b, err)
			}
			ch.ingest = append(ch.ingest, span)
			ch.ingestAlloc = append(ch.ingestAlloc, alloc)

			// E: the monitor's core steps.
			cs, err := x.typed.coreStep(b)
			if err != nil {
				return nil, fmt.Errorf("core steps %s batch %d: %w", s.name, b, err)
			}
			ch.add, ch.induce, ch.gcr = append(ch.add, cs.add), append(ch.induce, cs.induce), append(ch.gcr, cs.gcr)
			q := math.NaN()
			if cs.sig != nil {
				q = cs.qualify
			}
			ch.qualify, ch.sess = append(ch.qualify, q), append(ch.sess, i)
			ch.regions, ch.frequent = append(ch.regions, float64(cs.regions)), append(ch.frequent, float64(cs.frequent))

			if err := sameEmission(repB, repC, repD, cs); err != nil {
				ch.fail(fmt.Errorf("%s batch %d: %w", s.name, b, err))
			}
		}
	}

	// Every stage's reports must equal C's, the single-node reference.
	for i := range sessions {
		name := sessions[i].name
		refBody, err := serveLocal(hC, http.MethodGet, "/v1/sessions/"+name+"/reports", nil)
		if err != nil {
			return nil, err
		}
		ch.ref[name] = refBody
		ch.attempted++
		if got, err := serveLocal(hA, http.MethodGet, "/v1/sessions/"+name+"/reports", nil); err != nil || !bytes.Equal(got, refBody) {
			ch.fail(fmt.Errorf("session %s: handler-fed reports differ from the single-node reference (%v)", name, err))
		}
	}

	// Replay: reopen B's data directory.
	regB.Close()
	t := time.Now()
	regR, _, err := serve.OpenRegistry(ch.durableDir, compactEvery)
	ch.replayMS = ms(time.Since(t))
	if err != nil {
		return nil, err
	}
	hR := regR.Handler()
	for name, refBody := range ch.ref {
		ch.attempted++
		if got, err := serveLocal(hR, http.MethodGet, "/v1/sessions/"+name+"/reports", nil); err != nil || !bytes.Equal(got, refBody) {
			ch.fail(fmt.Errorf("session %s: replayed reports differ from the single-node reference (%v)", name, err))
		}
	}
	regR.Close()
	return ch, nil
}

// sameEmission checks that the durable and in-memory sessions, the monitor
// and the step-by-step core replay emitted the same report.
func sameEmission(b, c *serve.ReportJSON, d *stream.Report, cs coreSample) error {
	if b == nil || c == nil || d == nil {
		return fmt.Errorf("missing emission")
	}
	if b.Deviation != c.Deviation || c.Deviation != d.Deviation || d.Deviation != cs.dev {
		return fmt.Errorf("deviations differ: durable %v, in-memory %v, monitor %v, core steps %v", b.Deviation, c.Deviation, d.Deviation, cs.dev)
	}
	if cs.qualified {
		if d.Qual == nil || c.Significance == nil || d.Qual.Significance != *cs.sig || *c.Significance != *cs.sig {
			return fmt.Errorf("significance differs between the session, the monitor and the core steps")
		}
	}
	return nil
}

// keepLog hard-links generation gen of a session's WAL, at path, into
// ch.walDir. The link shares the log's inode, so it sees every record B
// appends and outlives the compaction that removes the log; traceWAL reads
// the run's records back from these links.
func (ch *chainTrace) keepLog(name string, gen uint64, path string) error {
	link := filepath.Join(ch.walDir, fmt.Sprintf("%s.%d.log", name, gen))
	if err := os.Link(path, link); err != nil {
		return err
	}
	ch.walLogs = append(ch.walLogs, link)
	return nil
}

// walLog returns the highest WAL generation in a session directory and
// the path of its log.
func walLog(dir string) (gen uint64, path string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "wal.*.log")) // the pattern is well-formed
	for _, m := range matches {
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "wal."), ".log"), 10, 64)
		if err == nil && n > gen {
			gen, path = n, m
		}
	}
	return gen, path
}

func setFleetMetrics(res *result, ft fleetTrace) error {
	members, routers := ft.member.byKey(phaseDrive), ft.router.byKey(phaseDrive)
	var self []float64
	for key, rs := range routers {
		ms := members[key]
		if !isFeed(key) || len(ms) != len(rs) {
			continue
		}
		// One client feeds a session and waits for each ack, so the k-th
		// router span of a session's feed path wraps its k-th member span.
		self = append(self, pairDiffs(rs, ms)...)
	}
	if len(self) == 0 {
		return fmt.Errorf("no paired feed spans")
	}
	res.set("fleet.route_self_ms", median(self), "ms")
	res.set("fleet.conns_per_khop", float64(ft.conns)*1000/float64(ft.hops), "count")

	var busy, idle []float64
	for key, v := range members {
		if strings.HasPrefix(key, "GET ") {
			busy = append(busy, v...)
		}
	}
	for key, v := range ft.member.byKey(phaseIdle) {
		if strings.HasPrefix(key, "GET ") {
			idle = append(idle, v...)
		}
	}
	// Means, not medians: clients in a closed loop fall into step, so most
	// reads miss the feed they target and the median read does not wait.
	res.set("serve.read_wait_ms", mean(busy)-mean(idle), "ms")
	return nil
}

func setChainMetrics(res *result, ch *chainTrace) error {
	res.set("serve.handler_ms", median(ch.handler), "ms")
	res.set("serve.wire_self_ms", median(pairDiffs(ch.handler, ch.durable)), "ms")
	res.set("serve.persist_ms", median(pairDiffs(ch.durable, ch.inmem)), "ms")
	res.set("serve.rows_decode_ms", median(pairDiffs(ch.inmem, ch.ingest)), "ms")
	res.set("serve.feed_alloc_kb", median(ch.feedAlloc), "KB")
	res.set("serve.compactions", float64(len(ch.compactMS)), "count")
	res.set("serve.compact_ms", median(ch.compactMS), "ms")
	res.set("serve.snapshot_bytes", median(ch.snapshotBytes), "bytes")
	res.set("serve.replay_ms", ch.replayMS, "ms")
	res.set("stream.ingest_ms", median(ch.ingest), "ms")
	res.set("stream.ingest_alloc_kb", median(ch.ingestAlloc), "KB")
	res.set("core.window_add_ms", median(ch.add), "ms")
	res.set("core.induce_ms", median(ch.induce), "ms")
	res.set("core.gcr_ms", median(ch.gcr), "ms")
	res.set("core.qualify_ms", median(measured(ch.qualify)), "ms")
	res.set("core.regions", median(ch.regions), "count")
	res.set("core.frequent_sets", median(ch.frequent), "count")
	for _, p := range []struct {
		name    string
		samples []float64
	}{{"serve.handler_p90_ms", ch.handler}, {"stream.ingest_p90_ms", ch.ingest}} {
		v, err := percentile(p.samples, 900)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		res.set(p.name, v, "ms")
	}
	res.notes = append(res.notes, fmt.Sprintf("layer replay: %d feeds, %d bootstraps measured, %d compactions",
		len(ch.handler), len(measured(ch.qualify)), len(ch.compactMS)))
	return nil
}

// traceWAL measures the WAL that durable stage B wrote: its size over the
// row bytes B was fed, wal.Open over every generation of it, and
// wal.Writer.Append of the records that Open reads back, into a fresh log.
func traceWAL(res *result, ch *chainTrace, work string) error {
	var logBytes int64
	for _, path := range ch.walLogs {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		logBytes += fi.Size()
	}
	var recs [][]byte
	t := time.Now()
	for _, path := range ch.walLogs {
		w, r, err := wal.Open(path)
		if err != nil {
			return err
		}
		w.Close()
		recs = append(recs, r...)
	}
	res.set("wal.scan_ms", ms(time.Since(t)), "ms")
	res.Attempted++
	if len(recs) != ch.walFeeds {
		res.Failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("B's WAL holds %d records for %d acknowledged feeds", len(recs), ch.walFeeds)
		}
	}

	w, _, err := wal.Open(filepath.Join(work, "append.log"))
	if err != nil {
		return err
	}
	var appendUS []float64
	for _, rec := range recs {
		t := time.Now()
		if err := w.Append(rec); err != nil {
			return err
		}
		appendUS = append(appendUS, float64(time.Since(t))/float64(time.Microsecond))
	}
	if err := w.Close(); err != nil {
		return err
	}
	res.set("wal.append_us", median(appendUS), "us")
	res.set("wal.write_amp", float64(logBytes)/float64(ch.walRowBytes), "ratio")
	return nil
}

// traceDtree times the growth of the pinned trees of the workload's dt
// sessions; a workload without dt sessions grows a tree on a classgen F1
// dataset of the experiments' quick-scale size and tree limits instead.
func traceDtree(res *result, sessions []sessionInput, seed int64) error {
	var builds []float64
	nodes := 0
	grow := func(cfg *serve.SessionConfig, ref []byte) error {
		schema, err := cfg.Schema.Schema()
		if err != nil {
			return err
		}
		d, err := decodeTuples(schema, dataset.NewTupleDecoder(schema), ref)
		if err != nil {
			return err
		}
		for k := 0; k < 5; k++ {
			t := time.Now()
			tree, err := buildTree(cfg, d)
			if err != nil {
				return err
			}
			builds = append(builds, ms(time.Since(t)))
			nodes = countNodes(tree.Root)
		}
		return nil
	}
	for i := range sessions {
		if sessions[i].cfg.Model == "dt" {
			if err := grow(&sessions[i].cfg, sessions[i].cfg.Reference); err != nil {
				return err
			}
		}
	}
	if len(builds) == 0 {
		sc := experiments.Quick
		d, err := classgen.Generate(classgen.Config{NumTuples: sc.DTSizes[0], Function: classgen.F1, Seed: seed})
		if err != nil {
			return err
		}
		rows, err := tupleRowsJSON(d)
		if err != nil {
			return err
		}
		cfg := serve.SessionConfig{Schema: schemaJSON(classgen.Schema()), MaxDepth: sc.TreeMaxDepth, MinLeaf: sc.TreeMinLeaf}
		if err := grow(&cfg, rows); err != nil {
			return err
		}
	}
	res.set("dtree.build_ms", median(builds), "ms")
	res.set("dtree.nodes", float64(nodes), "count")
	return nil
}

// traceExperiments runs the paper-experiments job in-process, one call per
// experiment, with the allocation delta around each. On the
// paper-experiments workload the outputs are also checked against the
// serial reference.
func traceExperiments(res *result, w workload) error {
	var ref map[string]string
	if !w.serving {
		var err error
		if ref, err = serialReference(); err != nil {
			return err
		}
	}
	var allocMB float64
	for _, id := range experimentIDs {
		var buf bytes.Buffer
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		if err := runExperiment(id, &buf); err != nil {
			return err
		}
		res.set("experiments."+id+"_s", time.Since(t).Seconds(), "s")
		runtime.ReadMemStats(&m1)
		allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		if ref != nil {
			res.Attempted++
			if normalizeOutput(buf.String()) != ref[id] {
				res.Failed++
				if res.firstErr == nil {
					res.firstErr = fmt.Errorf("experiment %s differs from the serial reference", id)
				}
			}
		}
	}
	res.set("experiments.alloc_mb", allocMB, "MB")
	return nil
}

// checkLayerSums checks, for each kind of session, that the serving layers
// add up to the handler span and the core steps to the monitor's ingest,
// and that the workload stresses the layers it was designed for. The sums
// are checked per kind (model class, and whether it qualifies) because a
// stream that mixes kinds has a multi-modal feed time, whose pooled medians
// need not add up. A failed check fails the run.
func checkLayerSums(res *result, workload string, sessions []sessionInput, ch *chainTrace) {
	check := func(ok bool, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		res.Attempted++
		if ok {
			res.notes = append(res.notes, "ok    "+msg)
			return
		}
		res.notes = append(res.notes, "FAIL  "+msg)
		res.Failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("%s", msg)
		}
	}
	kindOf := func(i int) string {
		if sessions[i].cfg.Qualify {
			return sessions[i].cfg.Model + "+qualify"
		}
		return sessions[i].cfg.Model
	}
	var kinds []string
	for i := range sessions {
		if !slices.Contains(kinds, kindOf(i)) {
			kinds = append(kinds, kindOf(i))
		}
	}
	for _, kind := range kinds {
		of := func(xs []float64) float64 {
			var out []float64
			for k, x := range xs {
				if kindOf(ch.sess[k]) == kind {
					out = append(out, x)
				}
			}
			return median(measured(out))
		}
		handler, ingest := of(ch.handler), of(ch.ingest)
		parts := of(pairDiffs(ch.handler, ch.durable)) + of(pairDiffs(ch.durable, ch.inmem)) +
			of(pairDiffs(ch.inmem, ch.ingest)) + ingest
		check(math.Abs(parts-handler) <= serveSumTolerance*handler,
			"%s serve layers: wire_self + persist + rows_decode + ingest = %.4f ms vs handler %.4f ms (tolerance %.0f%%)",
			kind, parts, handler, serveSumTolerance*100)
		steps, label := of(ch.add)+of(ch.induce)+of(ch.gcr), "window_add + induce + gcr"
		if strings.HasSuffix(kind, "+qualify") {
			steps, label = steps+of(ch.qualify), label+" + qualify"
		}
		check(math.Abs(steps-ingest) <= coreSumTolerance*ingest,
			"%s core steps: %s = %.4f ms vs stream.ingest %.4f ms (tolerance %.0f%%)",
			kind, label, steps, ingest, coreSumTolerance*100)
	}

	v := func(name string) float64 { return res.Metrics[name].Value }
	switch workload {
	case "tuple-feed":
		share := (v("serve.rows_decode_ms") + v("serve.wire_self_ms")) / v("serve.handler_ms")
		check(share > 0.5, "tuple-feed design: rows_decode + wire_self are %.1f%% of the handler span (want a majority)", share*100)
	case "lits-qualify":
		share := v("core.qualify_ms") / v("stream.ingest_ms")
		check(share > 0.5, "lits-qualify design: qualify is %.1f%% of stream.ingest (want a majority)", share*100)
	}
}

// measured drops the NaN placeholders of unmeasured samples.
func measured(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}
