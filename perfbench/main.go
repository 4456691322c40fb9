// Command perfbench is the FOCUS system benchmark. It drives the focusd,
// focusrouter and experiments binaries built from this tree on one of three
// seeded workloads (tuple-feed, lits-qualify, paper-experiments), checks
// every answer against a single-node in-process reference, and prints the
// end-to-end metrics; with -trace 1 it instead replays the same inputs
// in-process through each layer's public functions and prints the
// per-layer metrics. README.md lists every metric and why each workload
// exists. run.sh builds the binaries and runs it:
//
//	bash perfbench/run.sh --workload tuple-feed --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every correctness check passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// maxMeasure caps a run's measurement so it exits well within its
// 180-second budget even on a much slower build.
const maxMeasure = 140 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding focusd, focusrouter and experiments
	work     string // scratch directory for data directories
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. It marshals to the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	firstErr error
	notes    []string // printed before the result line
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setPercentiles records <prefix>_p50_ms, the median of every round's
// samples, and <prefix>_p99_ms, the median over blocks of consecutive
// rounds of each block's p99. A block holds at least minTailSamples
// samples, so each p99 has ten beyond it. A burst of load from elsewhere on
// the host lifts one block's tail, not the median of the blocks.
func (r *result) setPercentiles(prefix string, rounds [][]float64) error {
	var pooled []float64
	for _, s := range rounds {
		pooled = append(pooled, s...)
	}
	p50, err := percentile(pooled, 500)
	if err != nil {
		return fmt.Errorf("%s latency: %w", prefix, err)
	}
	blocks := tailBlocks(rounds, minTailSamples)
	if len(blocks) == 0 {
		return fmt.Errorf("%s latency: p99 needs a block of %d samples; the run has %d", prefix, minTailSamples, len(pooled))
	}
	var p99s []float64
	for _, b := range blocks {
		v, err := percentile(b, 990)
		if err != nil {
			return fmt.Errorf("%s latency: %w", prefix, err)
		}
		p99s = append(p99s, v)
	}
	r.set(prefix+"_p50_ms", p50, "ms")
	r.set(prefix+"_p99_ms", median(p99s), "ms")
	r.notes = append(r.notes, fmt.Sprintf("%s latency: %d samples, highest percentile with %d beyond it: p%g; p99 per block of >= %d samples: %s",
		prefix, len(pooled), minBeyond, float64(highestPercentile(len(pooled)))/10, minTailSamples, fmtList(p99s)))
	return nil
}

// clients is the number of closed-loop producers: one per CPU, at most
// two, so the load shape is the same on any machine with two or more CPUs.
func clients() int { return min(runtime.NumCPU(), 2) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: tuple-feed, lits-qualify or paper-experiments")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "how long a run measures, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = replay the inputs in-process layer by layer and print per-layer metrics")
	fs.StringVar(&o.bin, "bin", "", "directory holding the focusd, focusrouter and experiments binaries")
	fs.StringVar(&o.work, "work", "", "scratch directory for data directories (removed at exit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || o.bin == "" || o.work == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload tuple-feed|lits-qualify|paper-experiments, -bin, -work, -seconds >= 1 and -trace 0|1")
		return 2
	}
	o.trace = trace == 1
	o.work = filepath.Join(o.work, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.work)

	ctx := context.Background()
	hostBefore := hostCheck()
	var res *result
	var err error
	switch {
	case o.trace:
		res, err = runTraced(ctx, o, w)
	case w.serving:
		res, err = runServing(ctx, o, w)
	default:
		res, err = runBatch(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.notes = append(res.notes, fmt.Sprintf("host check: a fixed integer loop took %.1f ms before the run and %.1f ms after it",
		hostBefore, hostCheck()))
	printResult(stdout, o, res)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed:", res.firstErr)
		return 1
	}
	return 0
}

// printResult prints a readable summary, then the result line.
func printResult(w io.Writer, o options, res *result) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d trace=%t\n", o.workload, o.seed, o.trace)
	for _, n := range res.notes {
		fmt.Fprintln(w, "  "+n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if res.Attempted > 0 {
		fmt.Fprintf(w, "  %-26s %14.6g (%d failed of %d attempted)\n", "error_ratio",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	line, _ := json.Marshal(res) // plain data: cannot fail
	fmt.Fprintln(w, string(line))
}

// hostCheckSink keeps hostCheck's loop from being optimised away.
var hostCheckSink uint64

// hostCheck times a fixed integer loop that touches no memory. It is not a
// metric: the summary prints it so that a reader can tell a slow run on a
// shared host from a slow program.
func hostCheck() float64 {
	t := time.Now()
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	hostCheckSink = x
	return ms(time.Since(t))
}
