package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"focus/internal/experiments"
	"focus/internal/parallel"
)

// experimentIDs is the paper-experiments job: the sample-size tables, one
// lits and one dt SD-vs-SF curve, and the deviation/significance figure.
var experimentIDs = []string{"table1", "table2", "fig7", "fig10", "fig14"}

// experimentScale keeps the job at a few seconds.
const experimentScale = "quick"

// experimentSeed is the data seed the job passes to the experiments: the
// program's default. The workload seed does not reach the job, because
// the experiments draw their Quest pattern pools from this seed and fig7's
// cost follows the pool several-fold (0.7 to 10.8 s over seeds 11-15 at
// quick scale on a 2-CPU host). Runs on different workload seeds must
// measure the same work.
const experimentSeed = 1

// runExperiment computes one experiment in-process and prints it to w, the
// way cmd/experiments does.
func runExperiment(id string, w io.Writer) error {
	seed := int64(experimentSeed)
	sc, err := experiments.ScaleByName(experimentScale)
	if err != nil {
		return err
	}
	switch id {
	case "table1":
		r, err := experiments.Table1(sc, seed)
		if err != nil {
			return err
		}
		r.Print(w)
	case "table2":
		r, err := experiments.Table2(sc, seed)
		if err != nil {
			return err
		}
		r.Print(w)
	case "fig7":
		r, err := experiments.LitsSDCurves(sc, 0, seed)
		if err != nil {
			return err
		}
		r.Print(w)
	case "fig10":
		r, err := experiments.DTSDCurves(sc, 0, seed)
		if err != nil {
			return err
		}
		r.Print(w)
	case "fig14":
		r, err := experiments.Fig14(sc, seed)
		if err != nil {
			return err
		}
		r.Print(w)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

// serialReference computes every experiment in-process on one worker: the
// output the job must reproduce (results are identical for every worker
// count by design).
func serialReference() (map[string]string, error) {
	parallel.SetDefault(1)
	defer parallel.SetDefault(0)
	out := make(map[string]string, len(experimentIDs))
	for _, id := range experimentIDs {
		var buf bytes.Buffer
		if err := runExperiment(id, &buf); err != nil {
			return nil, err
		}
		out[id] = normalizeOutput(buf.String())
	}
	return out, nil
}

// doneLine matches cmd/experiments' wall-clock trailer, which is not part
// of the result.
var doneLine = regexp.MustCompile(`(?m)^\[\S+ done in [^\]]*\]$`)

func normalizeOutput(s string) string {
	return strings.TrimSpace(doneLine.ReplaceAllString(s, ""))
}

// resultRows counts the non-blank lines of an experiment's output.
func resultRows(s string) int {
	n := 0
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// runBatch measures the paper-experiments workload: the job runs each
// experiment as one cmd/experiments process, in order, and repeats until
// the run has measured for the requested seconds (at least three times).
func runBatch(ctx context.Context, o options) (*result, error) {
	t := time.Now()
	ref, err := serialReference()
	if err != nil {
		return nil, err
	}
	setup := time.Since(t).Seconds()
	rows := 0
	for _, id := range experimentIDs {
		rows += resultRows(ref[id])
	}

	res := &result{Metrics: map[string]metric{}}
	var wall, slowest, cpu, rss, latMS []float64
	start := time.Now()
	for len(wall) < 3 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		if time.Since(start) > maxMeasure {
			return nil, fmt.Errorf("only %d jobs fit in %v", len(wall), maxMeasure)
		}
		var jobWall, jobSlowest, jobCPU, jobRSS float64
		for _, id := range experimentIDs {
			var stdout, stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, filepath.Join(o.bin, "experiments"),
				"-scale", experimentScale, "-seed", strconv.Itoa(experimentSeed), id)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			t := time.Now()
			err := cmd.Run()
			lat := time.Since(t)
			res.Attempted++
			if err != nil {
				return nil, fmt.Errorf("experiments %s: %v: %s", id, err, strings.TrimSpace(stderr.String()))
			}
			if normalizeOutput(stdout.String()) != ref[id] {
				res.Failed++
				if res.firstErr == nil {
					res.firstErr = fmt.Errorf("experiments %s: output differs from the serial in-process reference", id)
				}
			}
			latMS = append(latMS, ms(lat))
			jobWall += lat.Seconds()
			jobSlowest = max(jobSlowest, ms(lat))
			st := cmd.ProcessState
			jobCPU += (st.UserTime() + st.SystemTime()).Seconds()
			if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
				jobRSS = max(jobRSS, float64(ru.Maxrss)/1024)
			}
		}
		wall = append(wall, jobWall)
		slowest = append(slowest, jobSlowest)
		cpu = append(cpu, jobCPU)
		rss = append(rss, jobRSS)
	}
	res.Correct = res.Failed == 0

	// The job has no feeds, reads or durable state. Every end-to-end
	// metric is still reported; README.md defines the stand-ins.
	batch := median(wall)
	res.set("setup_s", setup, "s")
	res.set("batch_s", batch, "s")
	res.set("recover_s", batch, "s")
	res.set("cpu_s", median(cpu), "s")
	res.set("peak_rss_mb", median(rss), "MB")
	res.set("feed_rows_per_s", float64(rows)/batch, "rows/s")
	res.set("feed_p50_ms", median(latMS), "ms")
	res.set("feed_p99_ms", median(slowest), "ms")
	res.set("read_p50_ms", median(latMS), "ms")
	res.set("read_p99_ms", median(slowest), "ms")
	res.notes = append(res.notes, fmt.Sprintf("%d jobs of %d experiments (%s scale); %d experiment latency samples",
		len(wall), len(experimentIDs), experimentScale, len(latMS)))
	return res, nil
}
