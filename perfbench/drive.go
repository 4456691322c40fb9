package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"focus/internal/serve"
)

// driveResult is what one pass of a workload's feed stream measured at the
// clients.
type driveResult struct {
	feedMS, readMS    []float64
	rows              int
	wall              float64 // seconds from the first feed to the last ack
	attempted, failed int
	firstErr          error
}

// drive feeds every session's stream through the router at base with nc
// closed-loop clients. Client c owns the sessions whose index is c modulo
// nc and feeds them in batch order, waiting for each ack before the next
// batch, as a real producer does; after every feed it issues one read,
// alternating GET .../reports and GET /v1/sessions/{name}. With readOther
// the read goes to the session the next client is feeding at that moment,
// so it waits on the session lock; otherwise reads cycle over all sessions,
// so some land on a session another client is feeding.
func drive(ctx context.Context, base string, sessions []sessionInput, nc int, readOther bool) driveResult {
	results := make([]driveResult, nc)
	feeding := make([]atomic.Int32, nc) // the session each client is feeding
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &loadClient{id: c, sessions: sessions, feeding: feeding, readOther: readOther}
			results[c] = cl.run(ctx, base)
		}(c)
	}
	wg.Wait()
	out := driveResult{wall: time.Since(start).Seconds()}
	for _, r := range results {
		out.feedMS = append(out.feedMS, r.feedMS...)
		out.readMS = append(out.readMS, r.readMS...)
		out.rows += r.rows
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// loadClient is one closed-loop producer.
type loadClient struct {
	id        int
	sessions  []sessionInput
	feeding   []atomic.Int32
	readOther bool
}

func (cl *loadClient) run(ctx context.Context, base string) driveResult {
	client := newClient()
	defer client.CloseIdleConnections()
	sessions, nc := cl.sessions, len(cl.feeding)
	var own []int
	for i := range sessions {
		if i%nc == cl.id {
			own = append(own, i)
		}
	}
	var r driveResult
	fail := func(err error) {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	reads := 0
	batches := len(sessions[0].feeds)
	for b := 0; b < batches; b++ {
		for _, i := range own {
			s := &sessions[i]
			cl.feeding[cl.id].Store(int32(i))
			r.attempted++
			t := time.Now()
			if _, err := do(ctx, client, http.MethodPost, base+"/v1/sessions/"+s.name+"/batches", s.feeds[b]); err != nil {
				fail(err)
			} else {
				r.feedMS = append(r.feedMS, ms(time.Since(t)))
				r.rows += s.rows[b]
			}

			var target string
			if cl.readOther {
				target = sessions[cl.feeding[(cl.id+1)%nc].Load()].name
			} else {
				target = sessions[reads%len(sessions)].name
			}
			path := "/v1/sessions/" + target
			if reads%2 == 0 {
				path += "/reports"
			}
			reads++
			r.attempted++
			t = time.Now()
			if _, err := do(ctx, client, http.MethodGet, base+path, nil); err != nil {
				fail(err)
			} else {
				r.readMS = append(r.readMS, ms(time.Since(t)))
			}
		}
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// createSessions creates every session through base, in order.
func createSessions(ctx context.Context, c *http.Client, base string, sessions []sessionInput) error {
	for i := range sessions {
		if _, err := do(ctx, c, http.MethodPost, base+"/v1/sessions", sessions[i].create); err != nil {
			return fmt.Errorf("creating %s: %w", sessions[i].name, err)
		}
	}
	return nil
}

// referenceReports feeds every session's stream into a single-node
// in-memory registry through its HTTP handler and returns each session's
// GET .../reports body: the bytes every fleet answer must equal.
func referenceReports(sessions []sessionInput) (map[string][]byte, error) {
	h := serve.NewRegistry().Handler()
	out := make(map[string][]byte, len(sessions))
	for i := range sessions {
		s := &sessions[i]
		if _, err := serveLocal(h, http.MethodPost, "/v1/sessions", s.create); err != nil {
			return nil, fmt.Errorf("reference create %s: %w", s.name, err)
		}
		for b, body := range s.feeds {
			if _, err := serveLocal(h, http.MethodPost, "/v1/sessions/"+s.name+"/batches", body); err != nil {
				return nil, fmt.Errorf("reference feed %s batch %d: %w", s.name, b, err)
			}
		}
		rep, err := serveLocal(h, http.MethodGet, "/v1/sessions/"+s.name+"/reports", nil)
		if err != nil {
			return nil, err
		}
		out[s.name] = rep
	}
	return out, nil
}

// serveLocal runs one request through h in-process and returns the body,
// failing on any non-2xx status.
func serveLocal(h http.Handler, method, path string, body []byte) ([]byte, error) {
	req, rec := newLocalRequest(method, path, body)
	h.ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// checkReports compares the reports the fleet at base serves for the named
// sessions against the reference and returns how many reads were made and
// how many failed or differed.
func checkReports(ctx context.Context, c *http.Client, base string, names []string, ref map[string][]byte) (attempted, failed int, firstErr error) {
	for _, name := range names {
		attempted++
		got, err := do(ctx, c, http.MethodGet, base+"/v1/sessions/"+name+"/reports", nil)
		if err == nil && !bytes.Equal(got, ref[name]) {
			err = fmt.Errorf("session %s: reports differ from the single-node reference", name)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return attempted, failed, firstErr
}

// newLocalRequest builds an in-process request and its recorder.
func newLocalRequest(method, path string, body []byte) (*http.Request, *httptest.ResponseRecorder) {
	return httptest.NewRequest(method, path, bytes.NewReader(body)), httptest.NewRecorder()
}
