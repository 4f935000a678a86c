package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/cpumodel"
	"grophecy/internal/experiments"
	"grophecy/internal/skeleton"
	"grophecy/internal/sklang"
)

// Workload names, as BENCHMARK.json and RATIONALE.md refer to them.
const (
	wlWarm  = "project_warm"
	wlCold  = "project_cold"
	wlBatch = "batch_dag"
)

// daemonSeed is grophecyd's default machine seed; requests that carry
// no ?seed= are projected (and replayed) at it.
const daemonSeed = experiments.DefaultSeed

// backends are the prediction backends project_cold rotates through.
var backends = []string{"analytic", "fitted", "piecewise"}

// request is one generated HTTP request plus what the in-process
// reference needs to recompute its answer.
type request struct {
	path    string // URL path with query
	body    []byte
	stream  bool   // Accept: application/x-ndjson
	backend string // projection backend (/project only)
	seed    uint64 // projection seed (/project only)
}

// workload is one traffic mix: the warm-up pass (each distinct input
// once) and the timed sequence, both generated from the workload seed.
type workload struct {
	name   string
	warmup []request
	// next returns the i-th request of the timed sequence.
	next func(i int) (request, error)
}

func newWorkload(name string, seed uint64) (workload, error) {
	w := workload{name: name}
	var err error
	switch name {
	case wlWarm:
		w.warmup, err = warmInputs()
		w.next = func(i int) (request, error) { return w.warmup[i%len(w.warmup)], nil }
	case wlCold:
		w.warmup, err = coldWarmup(seed)
		w.next = func(i int) (request, error) { return coldRequest(seed, i) }
	case wlBatch:
		var r request
		r, err = batchRequest()
		w.warmup = []request{r}
		w.next = func(int) (request, error) { return r, nil }
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlWarm, wlCold, wlBatch)
	}
	return w, err
}

// warmInputs is the ten paper workloads as skeleton source at the
// daemon's defaults. They do not depend on the seed: project_warm
// measures the serving path on inputs whose every cache entry is hot.
func warmInputs() ([]request, error) {
	ws, err := bench.All()
	if err != nil {
		return nil, err
	}
	out := make([]request, len(ws))
	for i, w := range ws {
		src, err := sklang.Format(w)
		if err != nil {
			return nil, err
		}
		out[i] = request{path: "/project", body: []byte(src), backend: "analytic", seed: daemonSeed}
	}
	return out, nil
}

// coldWarmupBase puts project_cold's warm-up inputs at indices (and so
// at seeds and kernel names) the timed sequence never reaches.
const coldWarmupBase = 1 << 30

// coldWarmupCount is a multiple of the backend rotation (3) and of the
// 3-D template rotation (4), so the warm-up touches every backend with
// every 3-D template.
const coldWarmupCount = 24

func coldWarmup(seed uint64) ([]request, error) {
	out := make([]request, coldWarmupCount)
	for j := range out {
		r, err := coldRequest(seed, coldWarmupBase+j)
		if err != nil {
			return nil, err
		}
		out[j] = r
	}
	return out, nil
}

// coldRequest builds the i-th project_cold request. Every request
// misses every cache the daemon has: its ?seed= is new (calibration
// pool miss), its kernels carry a request-unique name (transform memo
// miss), and every other request is a 3-D stencil, whose rank-3
// sections are the only ones the brs op cache admits.
func coldRequest(seed uint64, i int) (request, error) {
	rng := newRNG(seed, uint64(i))
	tag := "_c" + strconv.Itoa(i)
	var (
		w   core.Workload
		err error
	)
	if i%2 == 0 {
		w = stencil3D(rng, tag, (i/2)%2 == 1)
	} else {
		w, err = rescaledPaper(rng, tag, (i/2)%10)
		if err != nil {
			return request{}, err
		}
	}
	src, err := sklang.Format(w)
	if err != nil {
		return request{}, fmt.Errorf("formatting %s: %w", w.Name, err)
	}
	b := backends[i%len(backends)]
	qseed := coldSeed(seed, i)
	return request{
		path:    "/project?seed=" + strconv.FormatUint(qseed, 10) + "&backend=" + b,
		body:    []byte(src),
		backend: b,
		seed:    qseed,
	}, nil
}

// coldSeed is request i's machine seed: unique per index within a
// run, and never the daemon's default.
func coldSeed(seed uint64, i int) uint64 {
	return (seed%1000+1)<<32 | uint64(i)
}

// paperWorkload builds the j-th of bench.All's ten workloads (Table I
// order) without building the other nine.
func paperWorkload(j int) (core.Workload, error) {
	cfd, hot, srad := bench.CFDSizes(), bench.HotSpotSizes(), bench.SRADSizes()
	if j < len(cfd) {
		return bench.CFD(cfd[j])
	}
	if j -= len(cfd); j < len(hot) {
		return bench.HotSpot(hot[j])
	}
	if j -= len(hot); j < len(srad) {
		return bench.SRAD(srad[j])
	}
	return bench.Stassuij(), nil
}

// rescaledPaper returns paper workload j (Table I order) with every
// large extent scaled by one seed-drawn factor in [0.5, 1.5].
func rescaledPaper(rng *rng, tag string, j int) (core.Workload, error) {
	w, err := paperWorkload(j)
	if err != nil {
		return core.Workload{}, err
	}
	r := 0.5 + rng.float()
	scale := func(n int64) int64 {
		if n < 64 {
			return n // small inner extents (vector widths, neighbours) keep their meaning
		}
		return int64(math.Max(16, math.Round(float64(n)*r)))
	}
	var before, after float64
	for _, a := range w.Seq.Arrays() {
		before += float64(a.Count())
		for d := range a.Dims {
			a.Dims[d] = scale(a.Dims[d])
		}
		after += float64(a.Count())
	}
	for _, k := range w.Seq.Kernels {
		k.Name += tag
		for l := range k.Loops {
			k.Loops[l].Upper = scale(k.Loops[l].Upper)
		}
	}
	w.CPU.Elements = int64(math.Max(1, math.Round(float64(w.CPU.Elements)*after/before)))
	return w, nil
}

// stencil3D returns a 3-D stencil workload with seed-drawn extents and
// iteration count: a 7-point heat update, or (twoPhase) a gradient
// kernel feeding an update through a temporary array.
func stencil3D(rng *rng, tag string, twoPhase bool) core.Workload {
	nx, ny, nz := 32+rng.intn(96), 32+rng.intn(128), 32+rng.intn(128)
	iters := 1 + rng.intn(64)
	x, y, z := skeleton.Idx("x"), skeleton.Idx("y"), skeleton.Idx("z")
	loops := func() []skeleton.Loop {
		return []skeleton.Loop{skeleton.ParLoop("x", nx), skeleton.ParLoop("y", ny), skeleton.ParLoop("z", nz)}
	}
	u := skeleton.NewArray("u", skeleton.Float32, nx, ny, nz)
	out := skeleton.NewArray("u_next", skeleton.Float32, nx, ny, nz)
	neighbours := []skeleton.Access{
		skeleton.LoadOf(u, x, y, z),
		skeleton.LoadOf(u, skeleton.IdxPlus("x", -1), y, z),
		skeleton.LoadOf(u, skeleton.IdxPlus("x", 1), y, z),
		skeleton.LoadOf(u, x, skeleton.IdxPlus("y", -1), z),
		skeleton.LoadOf(u, x, skeleton.IdxPlus("y", 1), z),
		skeleton.LoadOf(u, x, y, skeleton.IdxPlus("z", -1)),
		skeleton.LoadOf(u, x, y, skeleton.IdxPlus("z", 1)),
	}
	var kernels []*skeleton.Kernel
	name := "heat7"
	if !twoPhase {
		coef := skeleton.NewArray("kappa", skeleton.Float32, nx, ny, nz)
		kernels = []*skeleton.Kernel{{
			Name:  "heat7" + tag,
			Loops: loops(),
			Stmts: []skeleton.Statement{{
				Accesses: append(neighbours, skeleton.LoadOf(coef, x, y, z), skeleton.StoreOf(out, x, y, z)),
				Flops:    13, IntOps: 20,
			}},
		}}
	} else {
		name = "grad3"
		g := skeleton.NewArray("grad", skeleton.Float32, nx, ny, nz)
		g.Temporary = true
		kernels = []*skeleton.Kernel{{
			Name:  "grad3" + tag,
			Loops: loops(),
			Stmts: []skeleton.Statement{{
				Accesses: append(neighbours, skeleton.StoreOf(g, x, y, z)),
				Flops:    9, IntOps: 18, Transcendentals: 1,
			}},
		}, {
			Name:  "update3" + tag,
			Loops: loops(),
			Stmts: []skeleton.Statement{{
				Accesses: []skeleton.Access{
					skeleton.LoadOf(g, x, y, z),
					skeleton.LoadOf(u, x, y, z),
					skeleton.StoreOf(out, x, y, z),
				},
				Flops: 4, IntOps: 6,
			}},
		}}
	}
	size := fmt.Sprintf("%d x %d x %d", nx, ny, nz)
	return core.Workload{
		Name:     name + "3d",
		DataSize: size,
		Seq:      &skeleton.Sequence{Name: name + "-" + size, Kernels: kernels, Iterations: int(iters)},
		CPU: cpumodel.Workload{
			Name:         name + "-cpu-" + size,
			Elements:     nx * ny * nz,
			FlopsPerElem: 13, BytesPerElem: 12,
			Vectorizable: true,
			Regions:      len(kernels),
		},
	}
}

// batchApp is one paper application of the batch_dag DAG.
type batchApp struct{ id, workload, size string }

var (
	batchApps = []batchApp{
		{"cfd", "CFD", "233K"},
		{"hotspot", "HotSpot", "1024 x 1024"},
		{"srad", "SRAD", "2048 x 2048"},
		{"stassuij", "Stassuij", ""},
	}
	batchTargets = []string{"c1060-pcie1", "c1060-pcie2", "c1060-pcie3", "c2050-pcie1", "c2050-pcie2", "c2050-pcie3"}
	// batchIters are the children's iteration sweep, 1…512.
	batchIters = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
)

// batchJob is one element of the POST /batch job array.
type batchJob struct {
	ID         string   `json:"id"`
	DependsOn  []string `json:"dependsOn,omitempty"`
	FromParent string   `json:"fromParent,omitempty"`
	Workload   string   `json:"workload"`
	Size       string   `json:"size,omitempty"`
	Target     string   `json:"target,omitempty"`
	Iters      int      `json:"iters,omitempty"`
}

// batchJobs is the fixed 64-job DAG: each application on six targets
// (24 roots), then ten children per application that take the best
// target of its six roots and sweep the iteration count.
func batchJobs() []batchJob {
	var jobs []batchJob
	for _, a := range batchApps {
		for _, t := range batchTargets {
			jobs = append(jobs, batchJob{ID: a.id + "@" + t, Workload: a.workload, Size: a.size, Target: t})
		}
	}
	for _, a := range batchApps {
		parents := make([]string, len(batchTargets))
		for i, t := range batchTargets {
			parents[i] = a.id + "@" + t
		}
		for _, n := range batchIters {
			jobs = append(jobs, batchJob{
				ID: a.id + "/iters=" + strconv.Itoa(n), DependsOn: parents, FromParent: "bestTarget",
				Workload: a.workload, Size: a.size, Iters: n,
			})
		}
	}
	return jobs
}

func batchRequest() (request, error) {
	body, err := json.Marshal(batchJobs())
	if err != nil {
		return request{}, err
	}
	return request{path: "/batch", body: body, stream: true}, nil
}

// rng is a splitmix64 stream keyed by (seed, index), so any request of
// a sequence can be regenerated without generating its predecessors.
type rng struct{ s uint64 }

func newRNG(seed, index uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ (index+1)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }
