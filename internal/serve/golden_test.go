package serve_test

import (
	"bytes"
	"flag"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"focus/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden data directory under testdata/golden-datadir")

// goldenDir holds a data directory written by an earlier release of the
// durability layer (data/) and the GET …/reports body each of its sessions
// served before the process stopped (reports/<name>.json).
const goldenDir = "testdata/golden-datadir"

// goldenCompactEvery compacts each golden session once inside its six
// feeds, so every session directory holds a state-carrying snapshot plus a
// two-record WAL tail.
const goldenCompactEvery = 4

// goldenKinds are the golden sessions: one per model class (the cluster
// one qualified, so the restored bootstrap RNG stream is pinned too).
func goldenKinds() []durableKind {
	kinds := durableKinds()
	return []durableKind{kinds[0], kinds[1], kinds[2]}
}

// getBody serves one GET through h and returns the response body.
func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// writeGoldenDataDir regenerates the golden data directory and reports.
// Run it only to add a format the restore path must keep reading; a
// regenerated directory no longer proves older ones restore.
func writeGoldenDataDir(t *testing.T) {
	for _, sub := range []string{"data", "reports"} {
		if err := os.RemoveAll(filepath.Join(goldenDir, sub)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(goldenDir, "reports"), 0o755); err != nil {
		t.Fatal(err)
	}
	r, _, err := serve.OpenRegistry(filepath.Join(goldenDir, "data"), goldenCompactEvery)
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handler()
	for _, k := range goldenKinds() {
		cfg := parseConfig(t, k.cfg)
		s, err := r.Create(cfg)
		if err != nil {
			t.Fatalf("%s: create: %v", k.name, err)
		}
		for i := range k.batches {
			feedKind(t, s, k, i)
		}
		body := getBody(t, h, "/v1/sessions/"+cfg.Name+"/reports")
		if err := os.WriteFile(filepath.Join(goldenDir, "reports", cfg.Name+".json"), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Abandoned, not closed: the directory is what a crash leaves.
}

// copyTree copies the directory tree at src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoldenDataDirRestores pins that a checked-in data directory — one
// compacted dt, cluster and lits session, each a snapshot plus a
// non-empty WAL tail — restores through OpenRegistry and serves the exact
// report bodies it served when it was written. A change to the snapshot
// format, the WAL, the recovery order or a stored knob that orphans
// existing deployments fails here.
func TestGoldenDataDirRestores(t *testing.T) {
	if *updateGolden {
		writeGoldenDataDir(t)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join(goldenDir, "data"), dir)
	r, warns, err := serve.OpenRegistry(dir, serve.DefaultCompactEvery)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(warns) > 0 {
		t.Fatalf("restore warnings: %v", warns)
	}
	h := r.Handler()
	kinds := goldenKinds()
	if names := r.Names(); len(names) != len(kinds) {
		t.Fatalf("restored sessions %v, want %d", names, len(kinds))
	}
	for _, k := range kinds {
		name := parseConfig(t, k.cfg).Name
		want, err := os.ReadFile(filepath.Join(goldenDir, "reports", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := getBody(t, h, "/v1/sessions/"+name+"/reports"); !bytes.Equal(got, want) {
			t.Fatalf("%s: restored reports differ\n got: %s\nwant: %s", k.name, got, want)
		}
	}
}
