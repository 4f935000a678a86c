package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// TestConcurrentEvaluationsAreIdentical hammers the shared engine and
// the package-global transform cache from many goroutines at once.
// Each goroutine owns its projector (the simulated machine is
// stateful) but all share DefaultEngine and the enumeration memo
// table — the structures the daemon's concurrent /project requests
// contend on. Under -race this is the data-race gate; under plain
// `go test` it still pins determinism: every report at the same seed
// must marshal byte-identically, interleaving or not.
//
// It complements cmd/grophecyd's TestConcurrentProjectionsAreIdentical,
// which drives the same property through the HTTP surface.
func TestConcurrentEvaluationsAreIdentical(t *testing.T) {
	const goroutines = 8
	const rounds = 3

	w := testWorkload(1024, 2)
	want := marshalReport(t, evaluateOnce(t, w))

	var wg sync.WaitGroup
	got := make([][]byte, goroutines*rounds)
	errs := make([]error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p, err := New(context.Background(), NewMachine(42), Options{})
				if err != nil {
					errs[g*rounds+r] = err
					return
				}
				rep, err := p.Evaluate(w)
				if err != nil {
					errs[g*rounds+r] = err
					return
				}
				data, err := json.Marshal(rep)
				if err != nil {
					errs[g*rounds+r] = err
					return
				}
				got[g*rounds+r] = data
			}
		}(g)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("evaluation %d: %v", i, err)
		}
	}
	for i, data := range got {
		if !bytes.Equal(data, want) {
			t.Errorf("evaluation %d produced a different report under concurrency:\n%s\nwant:\n%s",
				i, data, want)
		}
	}
}

// TestConcurrentMixedWorkloads runs *different* workloads in parallel
// so cache insertions, hits, and evictions interleave, then checks
// each against its own serial baseline.
func TestConcurrentMixedWorkloads(t *testing.T) {
	sizes := []int64{256, 512, 1024, 2048}
	baselines := make(map[int64][]byte, len(sizes))
	for _, n := range sizes {
		baselines[n] = marshalReport(t, evaluateOnce(t, testWorkload(n, 2)))
	}

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		n := sizes[i%len(sizes)]
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			p, err := New(context.Background(), NewMachine(42), Options{})
			if err != nil {
				t.Error(err)
				return
			}
			rep, err := p.Evaluate(testWorkload(n, 2))
			if err != nil {
				t.Error(err)
				return
			}
			data, err := json.Marshal(rep)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(data, baselines[n]) {
				t.Errorf("size %d: concurrent report differs from serial baseline", n)
			}
		}(n)
	}
	wg.Wait()
}

func evaluateOnce(t *testing.T, w Workload) Report {
	t.Helper()
	p, err := New(context.Background(), NewMachine(42), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func marshalReport(t *testing.T, rep Report) []byte {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
