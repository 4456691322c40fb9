package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"focus/internal/serve"
	"focus/internal/stream"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{19, 0}, {20, 500}, {99, 500}, {100, 900}, {999, 900}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = p%g, want p%g", c.n, float64(got)/10, float64(c.want)/10)
		}
	}
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so the helper must sort
		}
		return out
	}
	if _, err := percentile(samples(999), 990); err == nil {
		t.Error("p99 of 999 samples was reported; it has only 9 samples beyond it")
	}
	got, err := percentile(samples(1000), 990)
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if got, err := percentile(samples(1000), 500); err != nil || got != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", got, err)
	}
}

func TestTailBlocksHoldEnoughSamples(t *testing.T) {
	rounds := make([][]float64, 7)
	for i := range rounds {
		rounds[i] = make([]float64, 400)
	}
	var sizes []int
	for _, b := range tailBlocks(rounds, 1000) {
		sizes = append(sizes, len(b))
	}
	// 3 rounds fill the first block, 3 the second, and the seventh joins it.
	if want := []int{1200, 1600}; !slices.Equal(sizes, want) {
		t.Errorf("block sizes %v, want %v", sizes, want)
	}
	if b := tailBlocks(rounds[:2], 1000); b != nil {
		t.Errorf("800 samples gave %d blocks, want none", len(b))
	}
}

// flatten renders every byte a workload sends for comparison.
func flatten(t *testing.T, sessions []sessionInput) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range sessions {
		buf.Write(s.create)
		for _, f := range s.feeds {
			buf.Write(f)
		}
	}
	return buf.Bytes()
}

// TestSeedRegeneratesInputs covers every input the seed generates. The
// untraced paper-experiments job takes no seeded input — it always runs
// the experiments with experimentSeed — so for that workload only the
// traced run's analystStream is checked here.
func TestSeedRegeneratesInputs(t *testing.T) {
	for name, sessions := range map[string]func(int64) ([]sessionInput, error){
		"tuple-feed":                 tupleFeedStream,
		"lits-qualify":               litsQualifyStream,
		"paper-experiments (traced)": analystStream,
	} {
		gen := func(seed int64) []byte {
			s, err := sessions(seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return flatten(t, s)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// shortStream is a few batches of each session kind, enough to exercise a
// gate without the cost of a full stream.
func shortStream(t *testing.T) []sessionInput {
	t.Helper()
	sessions, err := analystStream(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sessions {
		sessions[i].feeds = sessions[i].feeds[:4]
	}
	return sessions
}

func TestPerturbedReportTripsGate(t *testing.T) {
	sessions := shortStream(t)
	ref, err := referenceReports(sessions)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewRegistry().Handler())
	defer srv.Close()
	ctx := context.Background()
	client := newClient()
	if err := createSessions(ctx, client, srv.URL, sessions); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for i := range sessions {
		names = append(names, sessions[i].name)
		for _, body := range sessions[i].feeds {
			if _, err := do(ctx, client, "POST", srv.URL+"/v1/sessions/"+sessions[i].name+"/batches", body); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, failed, err := checkReports(ctx, client, srv.URL, names, ref); failed != 0 {
		t.Fatalf("unperturbed fleet failed the gate: %v", err)
	}

	// Perturb one digit of one reported deviation.
	var doc struct {
		Reports []serve.ReportJSON `json:"reports"`
		Alerts  int                `json:"alerts"`
	}
	if err := json.Unmarshal(ref[names[0]], &doc); err != nil {
		t.Fatal(err)
	}
	doc.Reports[len(doc.Reports)-1].Deviation += 1e-9
	perturbed, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ref[names[0]] = append(perturbed, '\n')
	if _, failed, _ := checkReports(ctx, client, srv.URL, names, ref); failed != 1 {
		t.Errorf("perturbed report: %d sessions failed the gate, want 1", failed)
	}
}

func TestPerturbedEmissionTripsTracedGate(t *testing.T) {
	sig := 90.0
	rep := &serve.ReportJSON{Deviation: 0.25, Significance: &sig}
	mon := &stream.Report{Deviation: 0.25}
	cs := coreSample{dev: 0.25}
	if err := sameEmission(rep, rep, mon, cs); err != nil {
		t.Fatalf("identical emissions rejected: %v", err)
	}
	cs.dev = 0.25 + 1e-12
	if err := sameEmission(rep, rep, mon, cs); err == nil {
		t.Error("a perturbed core-step deviation passed the traced gate")
	}
}

func TestPerturbedExperimentOutputTripsGate(t *testing.T) {
	out := "Figure 14: Deviation with D: 4K.F1\nID    delta   %sig\nD(1)  0.0500  100\n[fig14 done in 1.062s]\n\n"
	ref := normalizeOutput(out)
	if normalizeOutput(strings.Replace(out, "1.062s", "9s", 1)) != ref {
		t.Error("the wall-clock trailer was not stripped")
	}
	if normalizeOutput(strings.Replace(out, "0.0500", "0.0501", 1)) == ref {
		t.Error("a perturbed deviation passed the experiments gate")
	}
}

func TestResultLineKeys(t *testing.T) {
	res := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
	res.set("setup_s", 0.5, "s")
	var buf bytes.Buffer
	printResult(&buf, options{workload: "tuple-feed"}, res)
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var got map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
		t.Fatal(err)
	}
	keys := []string{}
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("result line keys %v, want %v", keys, want)
	}
}
