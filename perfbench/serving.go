package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"focus/internal/fleet"
)

// fleetMembers is the number of durable focusd members behind the router.
const fleetMembers = 3

// compactEvery is every member's -compact-every: low enough that each
// session compacts twice a round.
const compactEvery = 20

// minTailSamples is the sample count of a block of rounds over which a p99
// is taken: the fewest that leave ten samples beyond it.
const minTailSamples = 1000

// streamVariants is the number of independently drawn streams a serving run
// cycles its rounds through. Rounds of one stream repeat the same feeds, so
// a tail percentile over them rests on the few slowest distinct feeds;
// three draws triple the distinct feeds a run's tails rest on, at the cost
// of three references.
const streamVariants = 3

// streamSeed derives the seed of a run's k-th stream from the workload seed.
func streamSeed(seed int64, k int) int64 { return seed*streamVariants + int64(k) }

// roundResult is one round of a serving workload: a fresh fleet is set up,
// fed the whole stream, checked, crashed and recovered.
type roundResult struct {
	setup, recover, cpu, rss float64 // s, s, s, MB
	drive                    driveResult
	attempted, failed        int
	firstErr                 error
}

// runServing measures a serving workload with the real focusd and
// focusrouter binaries. Each round feeds one of the run's seeded streams to
// a fresh fleet; the streams are drawn from one distribution and equal in
// size, so rounds do equal work. Rounds repeat until the run has measured
// for the requested seconds, at least three times (set-up and recovery are
// medians) and until the pooled feeds allow a p99.
func runServing(ctx context.Context, o options, w workload) (*result, error) {
	streams := make([][]sessionInput, streamVariants)
	refs := make([]map[string][]byte, streamVariants)
	for k := range streams {
		var err error
		if streams[k], err = w.sessions(streamSeed(o.seed, k)); err != nil {
			return nil, err
		}
		if refs[k], err = referenceReports(streams[k]); err != nil {
			return nil, err
		}
	}
	sessions := streams[0]
	feedsPerRound := len(sessions) * len(sessions[0].feeds)
	minRounds := max(3, (minTailSamples+feedsPerRound-1)/feedsPerRound)

	var rounds []roundResult
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start) < time.Duration(o.seconds)*time.Second {
		if time.Since(start) > maxMeasure {
			return nil, fmt.Errorf("only %d rounds fit in %v", len(rounds), maxMeasure)
		}
		dir := filepath.Join(o.work, "round-"+strconv.Itoa(len(rounds)))
		k := len(rounds) % streamVariants
		rr, err := runRound(ctx, o, w, streams[k], refs[k], dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setup, recov, cpu, rss, wall, rate []float64
	var feedMS, readMS [][]float64
	for _, rr := range rounds {
		setup = append(setup, rr.setup)
		recov = append(recov, rr.recover)
		cpu = append(cpu, rr.cpu)
		rss = append(rss, rr.rss)
		wall = append(wall, rr.drive.wall)
		rate = append(rate, float64(rr.drive.rows)/rr.drive.wall)
		feedMS = append(feedMS, rr.drive.feedMS)
		readMS = append(readMS, rr.drive.readMS)
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		if rr.firstErr != nil && res.firstErr == nil {
			res.firstErr = rr.firstErr
		}
	}
	res.Correct = res.Failed == 0
	res.notes = append(res.notes, fmt.Sprintf("%d rounds, %d sessions, %d clients",
		len(rounds), len(sessions), clients()))
	res.notes = append(res.notes, fmt.Sprintf("per round: setup_s %s; batch_s %s; recover_s %s; cpu_s %s; peak_rss_mb %s",
		fmtList(setup), fmtList(wall), fmtList(recov), fmtList(cpu), fmtList(rss)))
	res.set("setup_s", median(setup), "s")
	res.set("recover_s", median(recov), "s")
	res.set("cpu_s", median(cpu), "s")
	res.set("peak_rss_mb", median(rss), "MB")
	res.set("batch_s", median(wall), "s")
	res.set("feed_rows_per_s", median(rate), "rows/s")
	if err := res.setPercentiles("feed", feedMS); err != nil {
		return nil, err
	}
	if err := res.setPercentiles("read", readMS); err != nil {
		return nil, err
	}
	return res, nil
}

// runRound boots a fleet in dir, creates the sessions, drives the stream,
// checks every session's reports against the reference, then SIGKILLs
// every member and restarts them one at a time on their data directories,
// checking the reports again after each restart.
func runRound(ctx context.Context, o options, w workload, sessions []sessionInput, ref map[string][]byte, dir string) (rr roundResult, err error) {
	var live []*proc
	defer func() {
		for _, p := range live {
			p.kill()
		}
	}()
	client := newClient()
	defer client.CloseIdleConnections()
	memberArgs := func(i int, addr string) []string {
		return []string{"-addr", addr, "-data", filepath.Join(dir, "m"+strconv.Itoa(i)),
			"-compact-every", strconv.Itoa(compactEvery)}
	}

	t0 := time.Now()
	members := make([]*proc, fleetMembers)
	addrs := make([]string, fleetMembers)
	for i := range members {
		if members[i], err = startProc(filepath.Join(o.bin, "focusd"), memberArgs(i, "127.0.0.1:0")...); err != nil {
			return rr, err
		}
		live = append(live, members[i])
		addrs[i] = members[i].addr
	}
	router, err := startProc(filepath.Join(o.bin, "focusrouter"), "-addr", "127.0.0.1:0", "-members", strings.Join(addrs, ","))
	if err != nil {
		return rr, err
	}
	live = append(live, router)
	base := "http://" + router.addr
	if err := waitHealthy(ctx, client, base); err != nil {
		return rr, err
	}
	if err := createSessions(ctx, client, base, sessions); err != nil {
		return rr, err
	}
	rr.setup = time.Since(t0).Seconds()

	rr.drive = drive(ctx, base, sessions, clients(), w.readOther)
	rr.attempted, rr.failed, rr.firstErr = rr.drive.attempted, rr.drive.failed, rr.drive.firstErr
	names := make([]string, len(sessions))
	for i := range sessions {
		names[i] = sessions[i].name
	}
	rr.check(checkReports(ctx, client, base, names, ref))

	for _, p := range append([]*proc{router}, members...) {
		rss, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return rr, err
		}
		rr.rss += rss
	}
	for _, p := range members {
		cpu, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return rr, err
		}
		rr.cpu += cpu
		p.kill()
	}

	// Member ports are random and ring placement follows them, so each
	// member restarts on its old address, one at a time.
	ring := fleet.NewRing(0)
	for _, a := range addrs {
		ring.Add(a)
	}
	t1 := time.Now()
	for i := range members {
		if members[i], err = startProc(filepath.Join(o.bin, "focusd"), memberArgs(i, addrs[i])...); err != nil {
			return rr, err
		}
		live = append(live, members[i])
		if err := waitHealthy(ctx, client, "http://"+addrs[i]); err != nil {
			return rr, err
		}
		var owned []string
		for _, name := range names {
			if ring.Owner(name) == addrs[i] {
				owned = append(owned, name)
			}
		}
		rr.check(checkReports(ctx, client, base, owned, ref))
	}
	rr.recover = time.Since(t1).Seconds()

	for _, p := range append([]*proc{router}, members...) {
		cpu, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return rr, err
		}
		rr.cpu += cpu
	}
	return rr, nil
}

func (rr *roundResult) check(attempted, failed int, err error) {
	rr.attempted += attempted
	rr.failed += failed
	if err != nil && rr.firstErr == nil {
		rr.firstErr = err
	}
}
