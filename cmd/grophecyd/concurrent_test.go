package main

import (
	"bytes"
	"sync"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/transform"
)

// TestConcurrentProjectionsDeterministic is the concurrent determinism
// law: eight clients POSTing the ten paper workloads twice each to one
// daemon get exactly the bodies one client gets posting them in turn
// to a fresh daemon. It runs on two daemons: one started cold at the
// default backend, and one warm-started from a snapshot directory
// holding every backend's calibration, with the clients rotating
// ?backend= across them. The warm daemon must calibrate nothing.
// Under -race it also checks the shared memos (calibration pool and
// the decoded calibrations it hands every hit, transform enumeration
// and its architecture keys) for data races.
func TestConcurrentProjectionsDeterministic(t *testing.T) {
	srcs := paperSkeletons(t)
	backends := backend.Default.Names()

	// One daemon calibrates every backend, writing each through to
	// the snapshot directory the warm daemon boots from.
	snapDir := t.TempDir()
	writer, _, _ := startDaemon(t, daemonConfig{SnapshotDir: snapDir})
	for _, bk := range backends {
		if _, err := projectBody(writer.URL+"/project?backend="+bk, srcs[0]); err != nil {
			t.Fatal(err)
		}
	}

	// want[bk][j] is the sequential cold reference for workload j
	// under backend bk, filled on first use after the concurrent run.
	want := map[string][][]byte{}
	reference := func(t *testing.T, bk string, j int) []byte {
		if want[bk] == nil {
			ref, _, _ := startDaemon(t, daemonConfig{})
			for _, src := range srcs {
				body, err := projectBody(ref.URL+"/project?backend="+bk, src)
				if err != nil {
					t.Fatal(err)
				}
				want[bk] = append(want[bk], body)
			}
		}
		return want[bk][j]
	}

	for _, tc := range []struct {
		name string
		cfg  daemonConfig
		// backend is the backend of client c's k-th request.
		backend func(c, k int) string
	}{
		{"cold", daemonConfig{}, func(int, int) string { return backend.DefaultName }},
		{"warm", daemonConfig{SnapshotDir: snapDir}, func(c, k int) string { return backends[(c+k)%len(backends)] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			transform.SetCacheEnabled(transform.SetCacheEnabled(false)) // start the enumeration memo empty
			srv, s, _ := startDaemon(t, tc.cfg)
			const clients, rounds = 8, 2
			got := make([][][]byte, clients)
			var wg sync.WaitGroup
			for c := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < rounds*len(srcs); k++ {
						// Each client starts at a different workload so
						// first requests for one kernel overlap.
						j := (k + c) % len(srcs)
						body, err := projectBody(srv.URL+"/project?backend="+tc.backend(c, k), srcs[j])
						if err != nil {
							t.Error(err)
							return
						}
						got[c] = append(got[c], body)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if tc.cfg.SnapshotDir != "" && s.pool.Misses() != 0 {
				t.Errorf("warm-started daemon ran %d calibrations, want 0", s.pool.Misses())
			}
			for c, bodies := range got {
				for k, body := range bodies {
					j, bk := (k+c)%len(srcs), tc.backend(c, k)
					if w := reference(t, bk, j); !bytes.Equal(body, w) {
						t.Errorf("client %d request %d (workload %d, %s): body differs from the sequential reference:\n--- got ---\n%s\n--- want ---\n%s",
							c, k, j, bk, body, w)
					}
				}
			}
		})
	}
}
