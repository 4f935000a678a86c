package main

import (
	"bytes"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/sklang"
)

func requests(t *testing.T, name string, seed uint64, n int) []request {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]request(nil), w.warmup...)
	for i := 0; i < n; i++ {
		r, err := w.next(i)
		if err != nil {
			t.Fatalf("%s request %d: %v", name, i, err)
		}
		out = append(out, r)
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range []string{wlWarm, wlCold, wlBatch} {
		a, b := requests(t, name, 7, 40), requests(t, name, 7, 40)
		for i := range a {
			if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: request %d differs between two generations from seed 7", name, i)
			}
		}
	}
}

func TestNewSeedNewShapes(t *testing.T) {
	a, b := requests(t, wlCold, 7, 40), requests(t, wlCold, 8, 40)
	same := 0
	for i := range a {
		if bytes.Equal(a[i].body, b[i].body) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d of %d project_cold bodies are identical under seeds 7 and 8", same, len(a))
	}
}

func TestColdRequestsAreDistinctAndInclude3D(t *testing.T) {
	rs := requests(t, wlCold, 3, 60)
	seeds := map[uint64]bool{}
	kernels := map[string]bool{}
	threeD := 0
	for i, r := range rs {
		if seeds[r.seed] || r.seed == daemonSeed {
			t.Errorf("request %d reuses seed %d", i, r.seed)
		}
		seeds[r.seed] = true
		wl, err := sklang.Parse(string(r.body))
		if err != nil {
			t.Fatalf("request %d does not parse: %v", i, err)
		}
		for _, k := range wl.Seq.Kernels {
			if kernels[k.Name] {
				t.Errorf("request %d reuses kernel name %s", i, k.Name)
			}
			kernels[k.Name] = true
		}
		for _, a := range wl.Seq.Arrays() {
			if len(a.Dims) == 3 {
				threeD++
				break
			}
		}
	}
	if threeD < len(rs)/2 {
		t.Errorf("%d of %d project_cold requests are 3-D skeletons, want at least half", threeD, len(rs))
	}
}

func TestBatchDAGShape(t *testing.T) {
	jobs := batchJobs()
	if len(jobs) != 64 {
		t.Fatalf("%d jobs, want 64", len(jobs))
	}
	roots := 0
	for _, j := range jobs {
		switch {
		case len(j.DependsOn) == 0:
			roots++
		case len(j.DependsOn) != len(batchTargets) || j.FromParent != "bestTarget" || j.Iters < 1 || j.Iters > 512:
			t.Errorf("child %s: %d parents, fromParent %q, iters %d", j.ID, len(j.DependsOn), j.FromParent, j.Iters)
		}
	}
	if roots != 24 {
		t.Errorf("%d roots, want 24", roots)
	}
}

func TestPaperWorkloadMatchesBenchAll(t *testing.T) {
	all, err := bench.All()
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range all {
		got, err := paperWorkload(j)
		if err != nil || got.Name != want.Name || got.DataSize != want.DataSize {
			t.Errorf("paperWorkload(%d) = %s %s, %v; want %s %s", j, got.Name, got.DataSize, err, want.Name, want.DataSize)
		}
	}
}
