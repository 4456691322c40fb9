package serve_test

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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
// one qualified, so the restored bootstrap RNG stream is pinned too), then
// the stored knobs and window policies a restore must keep honouring — a
// qualified lits session carrying "counter": "trie", a dt session grown
// by the histogram split search, and an epoch-window session.
func goldenKinds() []durableKind {
	kinds := durableKinds()
	lits, dt := kinds[1], kinds[2]
	return []durableKind{kinds[0], lits, dt,
		{
			name: "lits-trie-qualified",
			cfg: strings.Replace(litsSessionCounter("lq", "trie"), `"threshold": 0.2`,
				`"threshold": 0.2, "qualify": true, "replicates": 19, "seed": 11`, 1),
			batches: nearReferenceTxns(),
		},
		{
			name: "dt-hist",
			cfg: strings.Replace(dtSession("dh"), `"min_leaf": 20,`,
				`"min_leaf": 20, "split_search": "hist", "hist_bins": 16,`, 1),
			batches: dt.batches,
		},
		{
			name: "cluster-epoch-window",
			cfg: strings.Replace(strings.Replace(clusterSession("ew"), `"window": 1`, `"epoch_window": 2`, 1),
				`"threshold": 0.5`, `"threshold": 0.5, "qualify": true, "replicates": 9, "seed": 5`, 1),
			batches: kinds[0].batches,
			epochs:  true,
		},
	}
}

// nearReferenceTxns is six 150-row lits batches from litsSessionCounter's
// reference pattern, every seventh row perturbed, so the qualified
// session's deviations are small and their significances land strictly
// inside (0, 100): the restored reports then pin the bootstrap null
// distribution, not just its extremes.
func nearReferenceTxns() []string {
	var batches []string
	for b := 0; b < 6; b++ {
		var rows []string
		for i := 0; i < 150; i++ {
			j := i + 37*b
			row := fmt.Sprintf("[%d,%d,%d]", j%7, j%5+3, j%3+8)
			if j%7 == b {
				row = fmt.Sprintf("[%d,11]", (j+b)%5+3)
			}
			rows = append(rows, row)
		}
		batches = append(batches, "["+strings.Join(rows, ",")+"]")
	}
	return batches
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

// writeGoldenDataDir adds every golden session missing from the golden
// data directory: each is created and fed in a scratch registry, its
// session directory copied in, and the reports it served written beside.
// Sessions already present are left byte for byte as an earlier release
// wrote them, so the directory keeps proving that older formats restore.
func writeGoldenDataDir(t *testing.T) {
	if err := os.MkdirAll(filepath.Join(goldenDir, "reports"), 0o755); err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	r, _, err := serve.OpenRegistry(scratch, goldenCompactEvery)
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handler()
	for _, k := range goldenKinds() {
		cfg := parseConfig(t, k.cfg)
		report := filepath.Join(goldenDir, "reports", cfg.Name+".json")
		if _, err := os.Stat(report); err == nil {
			continue
		}
		s, err := r.Create(cfg)
		if err != nil {
			t.Fatalf("%s: create: %v", k.name, err)
		}
		for i := range k.batches {
			feedKind(t, s, k, i)
		}
		body := getBody(t, h, "/v1/sessions/"+cfg.Name+"/reports")
		copyTree(t, filepath.Join(scratch, "sessions", cfg.Name), filepath.Join(goldenDir, "data", "sessions", cfg.Name))
		if err := os.WriteFile(report, body, 0o644); err != nil {
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

// TestGoldenDataDirRestores pins that a checked-in data directory — the
// compacted goldenKinds sessions, each a snapshot plus a non-empty WAL
// tail — restores through OpenRegistry and serves the exact
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
