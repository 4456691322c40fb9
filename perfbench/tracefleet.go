package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"focus/internal/fleet"
	"focus/internal/serve"
)

// span is one handler invocation recorded at a layer boundary.
type span struct {
	key   string // method and path
	phase int
	ms    float64
}

// Phases of a traced fleet drive.
const (
	phaseSetup = iota
	phaseDrive
	phaseIdle
)

// spanLog records handler spans in memory while enabled; they are read
// when the drive ends.
type spanLog struct {
	on    bool // fixed before serving starts
	phase atomic.Int32
	mu    sync.Mutex
	spans []span // guarded by mu
}

func (l *spanLog) wrap(h http.Handler) http.Handler {
	if !l.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, req)
		s := span{key: req.Method + " " + req.URL.Path, phase: int(l.phase.Load()), ms: ms(time.Since(t))}
		l.mu.Lock()
		l.spans = append(l.spans, s)
		l.mu.Unlock()
	})
}

// byKey returns the spans of one phase grouped by key, in completion
// order.
func (l *spanLog) byKey(phase int) map[string][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string][]float64)
	for _, s := range l.spans {
		if s.phase == phase {
			out[s.key] = append(out[s.key], s.ms)
		}
	}
	return out
}

func (l *spanLog) setPhase(p int) { l.phase.Store(int32(p)) }

// countingListener counts the connections a member accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// fleetTrace is what one in-process fleet drive measured.
type fleetTrace struct {
	drive            driveResult
	member, router   *spanLog
	conns, hops      int64
	attempted, fails int
	firstErr         error
}

// traceFleet boots durable registries and a fleet.Router in this process,
// each behind a real loopback listener, drives the stream through the
// router exactly as the untraced run drives focusrouter, then issues idle
// reads and checks the reports against the reference. With spans set the
// member and router handlers record their spans.
func traceFleet(ctx context.Context, w workload, sessions []sessionInput, ref map[string][]byte, dir string, spans bool) (ft fleetTrace, err error) {
	ft.member, ft.router = &spanLog{on: spans}, &spanLog{on: spans}
	runtime.GC() // start each drive from the same heap, not the previous phase's garbage
	var servers []*http.Server
	var regs []*serve.Registry
	var wg sync.WaitGroup
	defer func() {
		for _, s := range servers {
			s.Close()
		}
		wg.Wait()
		for _, r := range regs {
			r.Close()
		}
	}()
	serveOn := func(h http.Handler, ln net.Listener) {
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		servers = append(servers, srv)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Println("perfbench: in-process server:", err)
			}
		}()
	}

	var accepted atomic.Int64
	addrs := make([]string, fleetMembers)
	for i := range addrs {
		reg, warnings, err := serve.OpenRegistry(filepath.Join(dir, "m"+strconv.Itoa(i)), compactEvery)
		if err != nil {
			return ft, err
		}
		if len(warnings) > 0 {
			return ft, errors.Join(warnings...)
		}
		regs = append(regs, reg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return ft, err
		}
		addrs[i] = ln.Addr().String()
		serveOn(ft.member.wrap(reg.Handler()), countingListener{ln, &accepted})
	}
	// The router's member client is focusrouter's production client.
	rt := fleet.NewRouter(addrs, 0, &http.Client{Timeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ft, err
	}
	serveOn(ft.router.wrap(rt.Handler()), ln)
	base := "http://" + ln.Addr().String()

	client := newClient()
	defer client.CloseIdleConnections()
	if err := createSessions(ctx, client, base, sessions); err != nil {
		return ft, err
	}
	ft.member.setPhase(phaseDrive)
	ft.router.setPhase(phaseDrive)
	conns0 := accepted.Load()
	ft.drive = drive(ctx, base, sessions, clients(), w.readOther)
	ft.conns = accepted.Load() - conns0
	ft.hops = int64(ft.drive.attempted)
	ft.attempted, ft.fails, ft.firstErr = ft.drive.attempted, ft.drive.failed, ft.drive.firstErr

	// Idle reads: the same read mix with no feed running, the baseline of
	// serve.read_wait_ms.
	ft.member.setPhase(phaseIdle)
	ft.router.setPhase(phaseIdle)
	for k := 0; spans && k < idleReads; k++ {
		path := "/v1/sessions/" + sessions[k%len(sessions)].name
		if k%2 == 0 {
			path += "/reports"
		}
		ft.attempted++
		if _, err := do(ctx, client, http.MethodGet, base+path, nil); err != nil {
			ft.fails++
			if ft.firstErr == nil {
				ft.firstErr = err
			}
		}
	}
	names := make([]string, len(sessions))
	for i := range sessions {
		names[i] = sessions[i].name
	}
	a, f, err := checkReports(ctx, client, base, names, ref)
	ft.attempted += a
	ft.fails += f
	if err != nil && ft.firstErr == nil {
		ft.firstErr = err
	}
	return ft, nil
}

// idleReads is the number of reads issued after a drive, with no feed
// running, as the baseline of serve.read_wait_ms.
const idleReads = 200

// isFeed reports whether a span key is a feed request.
func isFeed(key string) bool {
	return strings.HasPrefix(key, "POST ") && strings.HasSuffix(key, "/batches")
}
