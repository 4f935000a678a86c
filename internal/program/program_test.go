package program

import (
	"strings"
	"testing"

	"grophecy/internal/datausage"
	"grophecy/internal/skeleton"
)

// elementwise builds a one-kernel sequence computing dst = f(src).
func elementwise(name string, src, dst *skeleton.Array, n int64) *skeleton.Sequence {
	k := &skeleton.Kernel{
		Name:  name,
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(src, skeleton.Idx("i")),
				skeleton.StoreOf(dst, skeleton.Idx("i")),
			},
			Flops: 2,
		}},
	}
	return &skeleton.Sequence{Name: name, Kernels: []*skeleton.Kernel{k}, Iterations: 1}
}

func TestTwoPhaseResidencyAvoidsReupload(t *testing.T) {
	// Phase 1: b = f(a). Phase 2: c = g(b). The CPU does not touch b
	// in between, so phase 2 must NOT re-upload b.
	const n = 1 << 16
	a := skeleton.NewArray("a", skeleton.Float32, n)
	b := skeleton.NewArray("b", skeleton.Float32, n)
	c := skeleton.NewArray("c", skeleton.Float32, n)
	p := &Program{
		Name: "pipeline",
		Phases: []Phase{
			{Seq: elementwise("p1", a, b, n)},
			{Seq: elementwise("p2", b, c, n)},
		},
	}
	plan, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Phases) != 2 {
		t.Fatalf("phases = %d", len(plan.Phases))
	}
	// Phase 1 uploads a only.
	if len(plan.Phases[0].Uploads) != 1 || plan.Phases[0].Uploads[0].Array() != a {
		t.Errorf("phase 1 uploads = %v", plan.Phases[0].Uploads)
	}
	// Phase 2 uploads nothing: b is resident.
	if len(plan.Phases[1].Uploads) != 0 {
		t.Errorf("phase 2 re-uploads: %v", plan.Phases[1].Uploads)
	}
	// Final phase downloads everything pending: b and c.
	downNames := names(plan.Phases[1].Downloads)
	if len(downNames) != 2 || !has(downNames, "b") || !has(downNames, "c") {
		t.Errorf("final downloads = %v", downNames)
	}
	// Phase 1 downloads nothing (CPU doesn't read b between phases).
	if len(plan.Phases[0].Downloads) != 0 {
		t.Errorf("phase 1 downloads = %v", plan.Phases[0].Downloads)
	}
}

func TestCPUWriteInvalidatesResidency(t *testing.T) {
	// Same pipeline, but the CPU modifies b between the phases:
	// phase 2 must re-upload it.
	const n = 1 << 16
	a := skeleton.NewArray("a", skeleton.Float32, n)
	b := skeleton.NewArray("b", skeleton.Float32, n)
	c := skeleton.NewArray("c", skeleton.Float32, n)
	p := &Program{
		Name: "invalidated",
		Phases: []Phase{
			{Seq: elementwise("p1", a, b, n), CPUReads: []*skeleton.Array{b},
				CPUWrites: []*skeleton.Array{b}},
			{Seq: elementwise("p2", b, c, n)},
		},
	}
	plan, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 must download b (CPU reads it)...
	if d := names(plan.Phases[0].Downloads); !has(d, "b") {
		t.Errorf("phase 1 downloads = %v, want b", d)
	}
	// ...and phase 2 must upload the CPU-modified b again.
	if u := names(plan.Phases[1].Uploads); !has(u, "b") {
		t.Errorf("phase 2 uploads = %v, want b", u)
	}
}

func TestCPUReadWithoutWriteKeepsResidency(t *testing.T) {
	// CPU reads b (download) but does not modify it: phase 2 still
	// reuses the GPU copy.
	const n = 1 << 16
	a := skeleton.NewArray("a", skeleton.Float32, n)
	b := skeleton.NewArray("b", skeleton.Float32, n)
	c := skeleton.NewArray("c", skeleton.Float32, n)
	p := &Program{
		Name: "readonly",
		Phases: []Phase{
			{Seq: elementwise("p1", a, b, n), CPUReads: []*skeleton.Array{b}},
			{Seq: elementwise("p2", b, c, n)},
		},
	}
	plan, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := names(plan.Phases[0].Downloads); !has(d, "b") {
		t.Errorf("phase 1 downloads = %v, want b", d)
	}
	if len(plan.Phases[1].Uploads) != 0 {
		t.Errorf("phase 2 re-uploads after read-only CPU use: %v", plan.Phases[1].Uploads)
	}
	// b already downloaded and unchanged on the GPU; the final flush
	// must not move it again.
	if d := names(plan.Phases[1].Downloads); has(d, "b") {
		t.Errorf("b downloaded twice: %v", d)
	}
}

func TestSinglePhaseMatchesDatausage(t *testing.T) {
	// A one-phase program degenerates to the single-sequence analysis.
	const n = 4096
	a := skeleton.NewArray("a", skeleton.Float32, n)
	b := skeleton.NewArray("b", skeleton.Float32, n)
	seq := elementwise("only", a, b, n)
	p := &Program{Name: "single", Phases: []Phase{{Seq: seq}}}
	plan, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	local, err := datausage.Analyze(seq, datausage.Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.UploadBytes() != local.UploadBytes() {
		t.Errorf("uploads %d vs %d", plan.UploadBytes(), local.UploadBytes())
	}
	if plan.DownloadBytes() != local.DownloadBytes() {
		t.Errorf("downloads %d vs %d", plan.DownloadBytes(), local.DownloadBytes())
	}
}

func TestResidencySavingsQuantified(t *testing.T) {
	// Ten chained phases over the same array: naive per-phase
	// analysis moves the array 10x each way; residency moves it once
	// in, once out.
	const n = 1 << 18
	img := skeleton.NewArray("img", skeleton.Float32, n)
	var phases []Phase
	for i := 0; i < 10; i++ {
		phases = append(phases, Phase{Seq: inplace("step", i, img, n)})
	}
	p := &Program{Name: "chain", Phases: phases}
	plan, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UploadBytes() != n*4 {
		t.Errorf("uploads = %d bytes, want one image", plan.UploadBytes())
	}
	if plan.DownloadBytes() != n*4 {
		t.Errorf("downloads = %d bytes, want one image", plan.DownloadBytes())
	}
	if plan.TransferCount() != 2 {
		t.Errorf("transfers = %d, want 2", plan.TransferCount())
	}
}

func inplace(base string, i int, arr *skeleton.Array, n int64) *skeleton.Sequence {
	k := &skeleton.Kernel{
		Name:  base + string(rune('a'+i)),
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(arr, skeleton.Idx("i")),
				skeleton.StoreOf(arr, skeleton.Idx("i")),
			},
			Flops: 1,
		}},
	}
	return &skeleton.Sequence{Name: k.Name, Kernels: []*skeleton.Kernel{k}, Iterations: 1}
}

func TestValidateRejects(t *testing.T) {
	if err := (&Program{}).Validate(); err == nil {
		t.Error("empty program accepted")
	}
	if err := (&Program{Name: "p"}).Validate(); err == nil {
		t.Error("phase-less program accepted")
	}
	if err := (&Program{Name: "p", Phases: []Phase{{}}}).Validate(); err == nil {
		t.Error("nil sequence accepted")
	}
	if _, err := Analyze(&Program{}); err == nil {
		t.Error("Analyze accepted invalid program")
	}
}

func TestPlanString(t *testing.T) {
	const n = 4096
	a := skeleton.NewArray("a", skeleton.Float32, n)
	b := skeleton.NewArray("b", skeleton.Float32, n)
	p := &Program{Name: "s", Phases: []Phase{{Seq: elementwise("k", a, b, n)}}}
	plan, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.String()
	if !strings.Contains(out, "phase 1") || !strings.Contains(out, "upload a") {
		t.Errorf("plan string incomplete:\n%s", out)
	}
}

func names(trs []datausage.Transfer) []string {
	var out []string
	for _, tr := range trs {
		out = append(out, tr.Array().Name)
	}
	return out
}

func has(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
