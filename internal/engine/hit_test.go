package engine

import (
	"context"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/pcie"
	"grophecy/internal/target"
)

// warmHit returns a pool already holding bk's calibration for the
// default target, and a function taking one hit on it.
func warmHit(tb testing.TB, bk string) func() {
	tb.Helper()
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		tb.Fatal(err)
	}
	pool := NewPool(0)
	ctx := context.Background()
	hit := func() {
		if _, err := pool.Projector(ctx, tgt, bk, seed, pcie.Pinned); err != nil {
			tb.Fatal(err)
		}
	}
	hit() // the miss
	return hit
}

// TestPoolHitCostSameForEveryBackend is the decode-once law: a hit
// binds the cached calibration to a fresh machine and decodes nothing,
// so what it allocates does not depend on how rich the backend's fit
// is.
func TestPoolHitCostSameForEveryBackend(t *testing.T) {
	allocs := map[string]float64{}
	for _, bk := range backend.Default.Names() {
		allocs[bk] = testing.AllocsPerRun(50, warmHit(t, bk))
	}
	want := allocs[backend.DefaultName]
	for bk, got := range allocs {
		if got != want {
			t.Errorf("pool hit allocs: %s %v, %s %v; want equal (all: %v)",
				bk, got, backend.DefaultName, want, allocs)
		}
	}
}

// BenchmarkPoolHit is one Pool.Projector call on a completed
// calibration, per backend.
func BenchmarkPoolHit(b *testing.B) {
	for _, bk := range backend.Default.Names() {
		b.Run(bk, func(b *testing.B) {
			hit := warmHit(b, bk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
		})
	}
}
