package sweep

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"grophecy/internal/errdefs"
)

func TestRunPreservesOrder(t *testing.T) {
	got, err := RunCtx(context.Background(), 100, 7, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestRunZeroInputs(t *testing.T) {
	got, err := RunCtx(context.Background(), 0, 4, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestRunNegativeInputs(t *testing.T) {
	if _, err := RunCtx(context.Background(), -1, 4, func(i int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := RunCtx(context.Background(), 50, 8, func(i int) (int, error) {
		if i == 33 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunBoundsWorkers(t *testing.T) {
	var active, peak int64
	_, err := RunCtx(context.Background(), 64, 3, func(i int) (int, error) {
		cur := atomic.AddInt64(&active, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		// Small busy loop to let overlap happen.
		s := 0
		for j := 0; j < 10000; j++ {
			s += j
		}
		atomic.AddInt64(&active, -1)
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p > 3 {
		t.Fatalf("peak concurrency %d exceeds 3 workers", p)
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	got, err := RunCtx(context.Background(), 10, 0, func(i int) (string, error) { return "x", nil })
	if err != nil || len(got) != 10 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestQuickRunMatchesSequential(t *testing.T) {
	prop := func(n uint8, workers uint8) bool {
		fn := func(i int) (int, error) { return 3*i + 1, nil }
		par, err := RunCtx(context.Background(), int(n), int(workers%8), fn)
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			want, _ := fn(i)
			if par[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunAggregatesAllErrors(t *testing.T) {
	errA := errors.New("boom A")
	errB := errors.New("boom B")
	_, err := RunCtx(context.Background(), 50, 8, func(i int) (int, error) {
		switch i {
		case 7:
			return 0, errA
		case 41:
			return 0, errB
		}
		return i, nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("err = %v, want both boom A and boom B joined", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	_, err := RunCtx(context.Background(), 20, 4, func(i int) (int, error) {
		if i == 13 {
			panic("unlucky input")
		}
		return i, nil
	})
	if !errors.Is(err, errdefs.ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if !strings.Contains(err.Error(), "unlucky input") {
		t.Errorf("err %q does not carry the panic value", err)
	}
	if !strings.Contains(err.Error(), "sweep.protect") {
		t.Errorf("err %q does not carry a stack trace", err)
	}
}

// TestRunCtxStopsScheduling: input 0 cancels the context; every
// other input waits for that cancellation before returning, so no
// worker can drain the remaining inputs before input 0 runs.
func TestRunCtxStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int64
	_, err := RunCtx(ctx, 1000, 2, func(i int) (int, error) {
		atomic.AddInt64(&started, 1)
		if i == 0 {
			cancel()
		} else {
			<-ctx.Done()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&started); n >= 1000 {
		t.Errorf("all %d inputs ran despite cancellation", n)
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	_, err := RunCtx(ctx, 100, 4, func(i int) (int, error) {
		atomic.AddInt64(&ran, 1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&ran); n != 0 {
		t.Errorf("%d inputs ran on a cancelled context", n)
	}
}
