package stream

import (
	"math/rand"
	"testing"

	"focus/internal/core"
	"focus/internal/quest"
	"focus/internal/txn"
)

// The benchmarks compare one window advance through the incremental
// monitor (cached per-batch summaries; only the new batch is scanned)
// against rebuilding the window's model from its raw batches — the
// ablation that justifies the summary/merge layer.

func benchStream(b *testing.B) (*txn.Dataset, [][]txn.Transaction) {
	b.Helper()
	const numItems = 200
	batches := randTxnBatches(1, 64, 500, numItems, 10)
	ref := concatTxns(numItems, randTxnBatches(2, 8, 500, numItems, 10), []int{0, 1, 2, 3, 4, 5, 6, 7})
	return ref, batches
}

func BenchmarkLitsMonitorIncremental(b *testing.B) {
	b.ReportAllocs()
	ref, batches := benchStream(b)
	const minSupport = 0.02
	mon, err := New(core.Lits(minSupport), ref, Options{WindowBatches: 8, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh batch dataset per ingest, as a producer would send it: no
		// memoized index carries over from an earlier pass over the same
		// transactions.
		if _, err := mon.Ingest(txnBatch(ref.NumItems, batches[i%len(batches)])); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLitsRebuildFromScratch(b *testing.B) {
	b.ReportAllocs()
	ref, batches := benchStream(b)
	const minSupport = 0.02
	refModel, err := core.MineLitsP(ref, minSupport, 1)
	if err != nil {
		b.Fatal(err)
	}
	var win []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win = append(win, i%len(batches))
		if len(win) > 8 {
			win = win[1:]
		}
		winData := concatTxns(ref.NumItems, batches, win)
		m2, err := core.MineLitsP(winData, minSupport, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Deviation(core.Lits(minSupport), refModel, m2, ref, winData, core.AbsoluteDiff, core.Sum, core.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// litsQualifyPool draws a fixed pool of Quest transactions over a 200-item
// universe: 100 patterns, 6-item transactions, 3-item patterns.
func litsQualifyPool(b *testing.B, seed int64) *txn.Dataset {
	b.Helper()
	qc := quest.DefaultConfig(4000)
	qc.NumItems, qc.NumPatterns = 200, 100
	qc.AvgTxnLen, qc.AvgPatternLen = 6, 3
	qc.Seed = seed
	d, err := quest.Generate(qc)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkLitsMonitorQualify is one ingest into a lits monitor that
// bootstrap-qualifies every emission: a 300-transaction reference, 60-
// transaction batches, a 2-batch window, 19 replicates at 5% support. The
// reference and the first half of the batches come from one Quest pool,
// the second half from another, so the stream drifts mid-way. Mining, the
// GCR and the bootstrap dominate an op.
func BenchmarkLitsMonitorQualify(b *testing.B) {
	b.ReportAllocs()
	before, after := litsQualifyPool(b, 1), litsQualifyPool(b, 2)
	rng := rand.New(rand.NewSource(3))
	drawTxns := func(pool *txn.Dataset, n int) []txn.Transaction {
		out := make([]txn.Transaction, n)
		for i := range out {
			out[i] = pool.Txns[rng.Intn(pool.Len())]
		}
		return out
	}
	ref := txnBatch(before.NumItems, drawTxns(before, 300))
	batches := make([][]txn.Transaction, 50)
	for i := range batches {
		pool := before
		if i >= len(batches)/2 {
			pool = after
		}
		batches[i] = drawTxns(pool, 60)
	}
	mon, err := New(core.Lits(0.05), ref, Options{
		WindowBatches: 2, Qualify: true, Replicates: 19, Seed: 4, Parallelism: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh batch dataset per ingest, as a producer would send it.
		if _, err := mon.Ingest(txnBatch(ref.NumItems, batches[i%len(batches)])); err != nil {
			b.Fatal(err)
		}
	}
}
