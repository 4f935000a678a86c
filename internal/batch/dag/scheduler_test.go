package dag

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grophecy/internal/errdefs"
)

// runAll executes g with bookkeeping hooks and returns what happened:
// per-job terminal errors (nil entries for skips that carry no error),
// the skip causes, and the emission sequence.
type runLog struct {
	done    map[int]error
	skipped map[int]int // job -> causing parent
	emitted []int
}

func runGraph(t *testing.T, g *Graph, workers int, run func(i int) error) runLog {
	t.Helper()
	lg := runLog{done: map[int]error{}, skipped: map[int]int{}}
	g.Run(context.Background(), workers, Hooks{
		Run:  run,
		Done: func(i int, err error) { lg.done[i] = err },
		Skip: func(i, parent int) { lg.skipped[i] = parent },
		Emit: func(i int) { lg.emitted = append(lg.emitted, i) },
	})
	return lg
}

func TestRunRespectsDependencies(t *testing.T) {
	// Diamond: root -> l, r -> sink. Each job records that its parents
	// ran before it started.
	nodes := []Node{node("root"), node("l", "root"), node("r", "root"), node("sink", "l", "r")}
	g, err := Build(nodes)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	started := map[int]bool{}
	lg := runGraph(t, g, 4, func(i int) error {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range g.Parents(i) {
			if !started[p] {
				t.Errorf("job %d ran before parent %d finished", i, p)
			}
		}
		started[i] = true
		return nil
	})
	if len(lg.done) != 4 || len(lg.skipped) != 0 {
		t.Fatalf("done=%d skipped=%d, want 4/0", len(lg.done), len(lg.skipped))
	}
	want := g.Order()
	if len(lg.emitted) != len(want) {
		t.Fatalf("emitted %v, want %v", lg.emitted, want)
	}
	for i := range want {
		if lg.emitted[i] != want[i] {
			t.Fatalf("emitted %v, want %v", lg.emitted, want)
		}
	}
}

func TestRunSkipsDescendantCone(t *testing.T) {
	// a fails -> b, c (children) and d (grandchild) skip; e is an
	// independent root and must still run.
	nodes := []Node{
		node("a"),
		node("b", "a"),
		node("c", "a"),
		node("d", "b", "c"),
		node("e"),
	}
	g, err := Build(nodes)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var ran int32
	lg := runGraph(t, g, 2, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if got := atomic.LoadInt32(&ran); got != 2 { // a and e only
		t.Errorf("ran %d jobs, want 2", got)
	}
	if !errors.Is(lg.done[0], boom) {
		t.Errorf("done[0] = %v, want boom", lg.done[0])
	}
	for _, i := range []int{1, 2, 3} {
		if _, ok := lg.skipped[i]; !ok {
			t.Errorf("job %d not skipped", i)
		}
	}
	if lg.skipped[1] != 0 || lg.skipped[2] != 0 {
		t.Errorf("direct children blame %d/%d, want parent 0", lg.skipped[1], lg.skipped[2])
	}
	if p := lg.skipped[3]; p != 1 {
		t.Errorf("grandchild blames %d, want its first parent 1", p)
	}
	if len(lg.emitted) != 5 {
		t.Errorf("emitted %v, want all 5 jobs", lg.emitted)
	}
}

// TestRunSkipBlamesFirstFailedParent: a job whose parents all fail
// names the first of them in dependency order, whichever finished
// first. Here the second parent fails first: the first one returns
// only after the scheduler has seen the second's failure.
func TestRunSkipBlamesFirstFailedParent(t *testing.T) {
	g, err := Build([]Node{node("a"), node("b"), node("c", "a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	bDone := make(chan struct{})
	skipped := map[int]int{}
	g.Run(context.Background(), 2, Hooks{
		Run: func(i int) error {
			if i == 0 {
				<-bDone
			}
			return errors.New("boom")
		},
		Done: func(i int, err error) {
			if i == 1 {
				close(bDone)
			}
		},
		Skip: func(i, parent int) { skipped[i] = parent },
	})
	if p, ok := skipped[2]; !ok || p != 0 {
		t.Fatalf("c skipped = %v blaming %d, want blaming its first parent a (0)", ok, p)
	}
}

func TestRunPanicBecomesErrPanicAndSkips(t *testing.T) {
	nodes := []Node{node("a"), node("b", "a")}
	g, err := Build(nodes)
	if err != nil {
		t.Fatal(err)
	}
	lg := runGraph(t, g, 1, func(i int) error {
		if i == 0 {
			panic("kaboom")
		}
		return nil
	})
	if !errors.Is(lg.done[0], errdefs.ErrPanic) {
		t.Errorf("done[0] = %v, want ErrPanic", lg.done[0])
	}
	if _, ok := lg.skipped[1]; !ok {
		t.Error("child of panicked job not skipped")
	}
}

func TestRunCancelledContextStillTerminates(t *testing.T) {
	// A cancelled context must not hang Run or lose jobs: queued roots
	// complete with the context error, their descendants skip, and
	// every job emits.
	nodes := []Node{node("a"), node("b", "a"), {}, {}}
	g, err := Build(nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var done, skipped, emitted int
	g.Run(ctx, 2, Hooks{
		Run:  func(i int) error { return nil },
		Done: func(i int, err error) { done++ },
		Skip: func(i, parent int) { skipped++ },
		Emit: func(i int) { emitted++ },
	})
	if done+skipped != 4 || emitted != 4 {
		t.Fatalf("done=%d skipped=%d emitted=%d, want terminal+emitted for all 4", done, skipped, emitted)
	}
}

func TestRunEmptyGraph(t *testing.T) {
	g, err := Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(context.Background(), 1, Hooks{Run: func(int) error { t.Error("run called"); return nil }})
}

func TestRunParentWritesVisibleToChild(t *testing.T) {
	// The happens-before contract: a child's Run observes its parents'
	// writes without locking. Run under -race this is the real test.
	const wide = 8
	nodes := make([]Node, 0, wide+1)
	nodes = append(nodes, node("sink"))
	deps := make([]string, 0, wide)
	for i := 0; i < wide; i++ {
		id := string(rune('a' + i))
		nodes = append(nodes, node(id))
		deps = append(deps, id)
	}
	nodes[0].DependsOn = deps
	g, err := Build(nodes)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int, wide+1)
	lg := runGraph(t, g, wide, func(i int) error {
		if i == 0 { // the sink: sum the parents' unsynchronized writes
			sum := 0
			for _, p := range g.Parents(0) {
				sum += vals[p]
			}
			vals[0] = sum
			return nil
		}
		vals[i] = i
		return nil
	})
	if len(lg.done) != wide+1 {
		t.Fatalf("done = %d, want %d", len(lg.done), wide+1)
	}
	want := 0
	for i := 1; i <= wide; i++ {
		want += i
	}
	if vals[0] != want {
		t.Errorf("sink saw %d, want %d", vals[0], want)
	}
}

// spin keeps the CPU busy for d without blocking, like a projection.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestRunEmitsOnFinishingWorker: with one CPU and one worker running
// CPU-only jobs, a job's row is emitted before the next job starts. A
// scheduler that left emission to a goroutine of its own would get the
// CPU only when the worker blocked, after every queued job had run.
func TestRunEmitsOnFinishingWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, err := Build([]Node{{}, {}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	var events []string // one worker: hooks never overlap
	g.Run(context.Background(), 1, Hooks{
		Run: func(i int) error {
			events = append(events, fmt.Sprintf("run %d", i))
			spin(200 * time.Microsecond)
			return nil
		},
		Emit: func(i int) { events = append(events, fmt.Sprintf("emit %d", i)) },
	})
	for i := 0; i < g.Len(); i++ {
		if events[2*i] != fmt.Sprintf("run %d", i) || events[2*i+1] != fmt.Sprintf("emit %d", i) {
			t.Fatalf("events = %v, want each job's emit before the next job runs", events)
		}
	}
}

// TestRunSlowEmitDoesNotStallDispatch: while one worker is held in
// Emit, the other keeps finishing jobs and dispatching their
// children. Here Emit(a) waits until the chain b -> c -> d has run to
// its end, which only the second worker can do.
func TestRunSlowEmitDoesNotStallDispatch(t *testing.T) {
	g, err := Build([]Node{node("a"), node("b"), node("c", "b"), node("d", "c")})
	if err != nil {
		t.Fatal(err)
	}
	emitting := make(chan struct{}) // Emit(a) has started
	chainDone := make(chan struct{})
	var emitted []int
	g.Run(context.Background(), 2, Hooks{
		Run: func(i int) error {
			switch i {
			case 1: // b starts only once a's row is being written
				select {
				case <-emitting:
				case <-time.After(10 * time.Second):
					t.Error("Emit(a) never started")
				}
			case 3:
				close(chainDone)
			}
			return nil
		},
		Emit: func(i int) {
			emitted = append(emitted, i)
			if i != 0 {
				return
			}
			close(emitting)
			select {
			case <-chainDone:
			case <-time.After(10 * time.Second):
				t.Error("a blocked Emit stalled the other worker: the chain b -> c -> d never finished")
			}
		},
	})
	if want := g.Order(); fmt.Sprint(emitted) != fmt.Sprint(want) {
		t.Errorf("emitted %v, want %v", emitted, want)
	}
}
