package core

import (
	"math/rand"
	"testing"

	"focus/internal/apriori"
	"focus/internal/txn"
)

// The view bootstrap must be invisible: Qualify through the generic
// materialized-resample path (genericLits) and through weighted views over
// the pool's vertical index (Lits) must produce bit-identical deviations,
// significances, and null distributions, at every parallelism. Run under
// -race this also shakes out sharing bugs between concurrent view workers.

// litsNoViews is the lits class with its bootstrapper fast path hidden:
// embedding the ModelClass interface exposes only the interface's methods,
// so Qualify runs the generic Resample/Induce/MeasureGCR replicate.
type litsNoViews struct {
	ModelClass[*txn.Dataset, *LitsModel]
}

// genericLits returns the lits class at minSupport without the view
// bootstrap — the reference the view replicate is checked against.
func genericLits(minSupport float64) ModelClass[*txn.Dataset, *LitsModel] {
	return litsNoViews{Lits(minSupport)}
}

func qualifyViewData(t *testing.T) (*txn.Dataset, *txn.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	d1 := skewedTxnDataset(rng, 500, 30, 6)
	d2 := skewedTxnDataset(rng, 650, 30, 7)
	return d1, d2
}

func TestQualifyViewBootstrapEquivalence(t *testing.T) {
	if _, ok := genericLits(0.05).(bootstrapper[*txn.Dataset]); ok {
		t.Fatal("genericLits exposes the view bootstrap")
	}
	d1, d2 := qualifyViewData(t)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"extension", []Option{WithExtension()}},
		{"focused", []Option{WithFocusItemsets(func(s apriori.Itemset) bool { return len(s) >= 2 })}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := append([]Option{WithReplicates(11), WithSeed(7), WithParallelism(1)}, tc.opts...)
			want, err := Qualify(genericLits(0.05), d1, d2, AbsoluteDiff, Sum, base...)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 4} {
				opts := append([]Option{WithReplicates(11), WithSeed(7), WithParallelism(p)}, tc.opts...)
				got, err := Qualify(Lits(0.05), d1, d2, AbsoluteDiff, Sum, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got.Deviation != want.Deviation || got.Significance != want.Significance {
					t.Fatalf("par%d: (dev, sig) = (%v, %v), generic (%v, %v)",
						p, got.Deviation, got.Significance, want.Deviation, want.Significance)
				}
				for i := range want.Null {
					if got.Null[i] != want.Null[i] {
						t.Fatalf("par%d: null[%d] = %v, generic %v", p, i, got.Null[i], want.Null[i])
					}
				}
			}
		})
	}
}

// TestUseViewBootstrapGate pins the gate: a pool whose vertical index fits
// takes the view bootstrap, one past the index memory cap keeps the
// materialized path.
func TestUseViewBootstrapGate(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	big := skewedTxnDataset(rng, 600, 20, 5)
	if !apriori.UseViewBootstrap(big) {
		t.Fatal("skipped the view bootstrap on a pool whose index fits")
	}
	wide := &txn.Dataset{NumItems: 1 << 26, Txns: big.Txns} // 4-byte slots alone fill the cap
	if apriori.UseViewBootstrap(wide) {
		t.Fatal("took the view bootstrap past the index memory cap")
	}
}
