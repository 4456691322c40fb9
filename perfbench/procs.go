package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every mainstream Linux build).
const clockTicks = 100

// proc is one running system-under-test process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string        // the listen address it printed
	done chan struct{} // closed once Wait returned
}

// addrWatcher is a process's stdout: it keeps the output and signals the
// address from the first "<prog> listening on <addr>" line.
type addrWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	const marker = " listening on "
	for s := w.buf.String(); !w.found; {
		nl := strings.IndexByte(s, '\n')
		if nl < 0 {
			break
		}
		if i := strings.Index(s[:nl], marker); i >= 0 {
			w.found = true
			w.addr <- s[i+len(marker) : nl]
		}
		s = s[nl+1:]
	}
	return len(p), nil
}

// startProc starts bin with args and waits until it prints its listen
// address. The caller stops it with kill.
func startProc(bin string, args ...string) (*proc, error) {
	w := &addrWatcher{addr: make(chan string, 1)}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = w
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{name: filepath.Base(bin), cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed process carries nothing
		close(p.done)
	}()
	select {
	case p.addr = <-w.addr:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening: %s", p.name, strings.TrimSpace(stderr.String()))
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not start listening within 60s", p.name)
	}
}

// kill SIGKILLs the process and waits until it has exited.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-p.done
}

// cpuSeconds reads user plus system CPU time of a live process from
// /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces: fields count
	// from after its closing parenthesis, where field 3 (state) is index 0.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// peakRSSMB reads VmHWM, the peak resident set, of a live process from
// /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// newClient returns an HTTP client holding at most one connection, the
// load of one closed-loop producer.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do issues one request and returns the response body, failing on any
// non-2xx status.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// waitHealthy polls base/healthz until it answers 200.
func waitHealthy(ctx context.Context, c *http.Client, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := do(ctx, c, http.MethodGet, base+"/healthz", nil); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %w", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
