package main

import (
	"bytes"
	"sync"
	"testing"

	"grophecy/internal/transform"
)

// TestConcurrentProjectionsDeterministic is the concurrent determinism
// law: eight clients POSTing the ten paper workloads twice each to one
// daemon, started cold, get exactly the bodies one client gets posting
// them in turn to a fresh daemon. Under -race it also checks the
// shared memos (calibration pool, transform enumeration and its
// architecture keys) for data races.
func TestConcurrentProjectionsDeterministic(t *testing.T) {
	srcs := paperSkeletons(t)
	transform.SetCacheEnabled(transform.SetCacheEnabled(false)) // start the enumeration memo empty

	srv, _, _ := startDaemon(t, daemonConfig{})
	const clients, rounds = 8, 2
	got := make([][][]byte, clients)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range srcs {
					// Each client starts at a different workload so
					// first requests for one kernel overlap.
					j := (i + c) % len(srcs)
					body, err := projectBody(srv.URL, srcs[j])
					if err != nil {
						t.Error(err)
						return
					}
					got[c] = append(got[c], body)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	ref, _, _ := startDaemon(t, daemonConfig{})
	want := make([][]byte, len(srcs))
	for i, src := range srcs {
		body, err := projectBody(ref.URL, src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = body
	}
	for c, bodies := range got {
		for k, body := range bodies {
			j := (k%len(srcs) + c) % len(srcs)
			if !bytes.Equal(body, want[j]) {
				t.Errorf("client %d request %d (workload %d): body differs from the sequential reference:\n--- got ---\n%s\n--- want ---\n%s",
					c, k, j, body, want[j])
			}
		}
	}
}
