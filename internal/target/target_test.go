package target

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"grophecy/internal/core"
	"grophecy/internal/cpumodel"
	"grophecy/internal/errdefs"
	"grophecy/internal/gpu"
	"grophecy/internal/pcie"
)

// defaultSeed mirrors experiments.DefaultSeed without importing the
// experiments package (which higher layers build on top of target).
const defaultSeed = 20130520

func TestDefaultRegistrySeeded(t *testing.T) {
	names := Default.Names()
	if len(names) < 9 {
		t.Fatalf("default registry has %d targets, want >= 9: %v", len(names), names)
	}
	for _, want := range []string{"fx5600-pcie1", "c1060-pcie2", "c2050-pcie3", "fx5600-pcie1-x5650"} {
		if _, ok := Default.Lookup(want); !ok {
			t.Errorf("default registry missing %q", want)
		}
	}
	// Names list is sorted and matches List order.
	list := Default.List()
	if len(list) != len(names) {
		t.Fatalf("List has %d entries, Names has %d", len(list), len(names))
	}
	for i, tgt := range list {
		if tgt.Name != names[i] {
			t.Errorf("List[%d] = %q, Names[%d] = %q", i, tgt.Name, i, names[i])
		}
	}
}

// TestRegistryConsistency is the `make check` gate: every registered
// target validates, builds a machine, and calibrates the transfer
// model within a short deadline. A preset that breaks calibration
// should fail here, not in a serving daemon.
func TestRegistryConsistency(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tgt := range Default.List() {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			if err := tgt.Validate(); err != nil {
				t.Fatalf("invalid: %v", err)
			}
			if err := ctx.Err(); err != nil {
				t.Fatalf("registry consistency deadline exhausted: %v", err)
			}
			m := tgt.Machine(defaultSeed)
			p, err := core.New(context.Background(), m, core.Options{})
			if err != nil {
				t.Fatalf("calibration: %v", err)
			}
			bm := p.BusModel()
			if bm.CalibrationTransfers <= 0 {
				t.Fatalf("calibrated from %d transfers", bm.CalibrationTransfers)
			}
		})
	}
}

// TestDefaultTargetMatchesNewMachine pins the compatibility contract:
// the default target's machine is component-for-component the paper's
// evaluation node, so projections through the registry are
// byte-identical to core.NewMachine ones.
func TestDefaultTargetMatchesNewMachine(t *testing.T) {
	tgt, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Name != DefaultName {
		t.Fatalf("empty lookup resolved to %q, want %q", tgt.Name, DefaultName)
	}
	const seed = 12345
	a := tgt.Machine(seed)
	b := core.NewMachine(seed)
	if a.GPUArch != b.GPUArch {
		t.Error("GPU arch differs from core.NewMachine")
	}
	if a.CPUArch != b.CPUArch {
		t.Error("CPU arch differs from core.NewMachine")
	}
	if a.Bus.Config() != b.Bus.Config() {
		t.Error("bus config differs from core.NewMachine")
	}
}

func TestLookupUnknownListsRegistered(t *testing.T) {
	_, err := Lookup("dgx-h100")
	if err == nil {
		t.Fatal("unknown target accepted")
	}
	if !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Errorf("unknown target error is not ErrInvalidInput: %v", err)
	}
	if !strings.Contains(err.Error(), DefaultName) {
		t.Errorf("error %q does not list registered names", err)
	}
}

func TestRegisterRejects(t *testing.T) {
	r := NewRegistry()
	ok := Target{
		Name: "ok", Description: "d",
		GPU: gpu.QuadroFX5600(), CPU: cpumodel.XeonE5405(),
		Bus: pcie.DefaultConfig(), BusName: "PCIe v1 x16",
	}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Error("duplicate registration accepted")
	}
	cases := map[string]func(*Target){
		"empty name":    func(t *Target) { t.Name = "" },
		"uppercase":     func(t *Target) { t.Name = "Bad" },
		"spaces":        func(t *Target) { t.Name = "a b" },
		"edge dash":     func(t *Target) { t.Name = "-a" },
		"empty busname": func(t *Target) { t.BusName = "" },
		"bad gpu":       func(t *Target) { t.GPU.SMs = 0 },
		"bad cpu":       func(t *Target) { t.CPU.Clock = 0 },
		"bad bus":       func(t *Target) { t.Bus.StagingChunk = 0 },
	}
	for name, mutate := range cases {
		bad := ok
		bad.Name = "fresh-" + strings.ReplaceAll(name, " ", "-")
		mutate(&bad)
		if err := r.Register(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTargetString(t *testing.T) {
	tgt, err := Lookup(DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	s := tgt.String()
	for _, part := range []string{tgt.GPU.Name, tgt.CPU.Name, tgt.BusName} {
		if !strings.Contains(s, part) {
			t.Errorf("String() %q missing %q", s, part)
		}
	}
}

func TestForGPU(t *testing.T) {
	for _, a := range gpu.Presets() {
		tgt, err := ForGPU(a.Name)
		if err != nil {
			t.Fatalf("ForGPU(%q): %v", a.Name, err)
		}
		if tgt.GPU.Name != a.Name {
			t.Errorf("ForGPU(%q) resolved GPU %q", a.Name, tgt.GPU.Name)
		}
		if tgt.CPU.Name != cpumodel.XeonE5405().Name {
			t.Errorf("ForGPU(%q) resolved CPU %q, want the paper's", a.Name, tgt.CPU.Name)
		}
		if tgt.BusName != pcie.Generations()[0].Name {
			t.Errorf("ForGPU(%q) resolved bus %q, want PCIe v1", a.Name, tgt.BusName)
		}
	}
	_, err := ForGPU("NVIDIA H100")
	if !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Fatalf("ForGPU(unknown): err = %v, want ErrInvalidInput", err)
	}
	if !strings.Contains(err.Error(), gpu.QuadroFX5600().Name) {
		t.Errorf("unknown-GPU message does not list presets: %v", err)
	}
}

func TestResolve(t *testing.T) {
	cases := []struct {
		name, gpuName, want string
	}{
		{"", "", DefaultName},
		{"c2050-pcie3", "", "c2050-pcie3"},
		{"", gpu.TeslaC2050().Name, "c2050-pcie1"},
	}
	for _, tc := range cases {
		tgt, err := Resolve(tc.name, tc.gpuName)
		if err != nil || tgt.Name != tc.want {
			t.Errorf("Resolve(%q, %q) = %q, %v; want %q", tc.name, tc.gpuName, tgt.Name, err, tc.want)
		}
	}
	if _, err := Resolve("c2050-pcie3", gpu.TeslaC2050().Name); !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Errorf("Resolve with both flags: err = %v, want ErrInvalidInput", err)
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister on an invalid target did not panic")
		}
	}()
	NewRegistry().MustRegister(Target{Name: "BAD NAME"})
}

func TestGPUSlugFallback(t *testing.T) {
	got := gpuSlug(gpu.Arch{Name: "ACME Hyper/9000 X"})
	if got != "acme-hyper-9000-x" {
		t.Errorf("gpuSlug fallback = %q, want %q", got, "acme-hyper-9000-x")
	}
}

// TestFingerprint pins the registry content hash's contract: stable
// across calls, sensitive to any hardware change, and identical for
// registries built from the same definitions.
func TestFingerprint(t *testing.T) {
	base := func() *Registry {
		r := NewRegistry()
		r.MustRegister(Target{
			Name: "a", Description: "d",
			GPU: gpu.QuadroFX5600(), CPU: cpumodel.XeonE5405(),
			Bus: pcie.DefaultConfig(), BusName: "PCIe v1 x16",
		})
		return r
	}
	r1, r2 := base(), base()
	fp := r1.Fingerprint()
	if fp == "" || len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
	}
	if r1.Fingerprint() != fp {
		t.Error("fingerprint changed between calls on the same registry")
	}
	if r2.Fingerprint() != fp {
		t.Error("identical registries fingerprint differently")
	}

	// Adding a target changes the hash.
	r2.MustRegister(Target{
		Name: "b", Description: "d",
		GPU: gpu.TeslaC2050(), CPU: cpumodel.XeonE5405(),
		Bus: pcie.DefaultConfig(), BusName: "PCIe v1 x16",
	})
	if r2.Fingerprint() == fp {
		t.Error("fingerprint ignored an added target")
	}

	// Changing a hardware parameter (same name) changes the hash.
	r3 := NewRegistry()
	g := gpu.QuadroFX5600()
	g.SMs++
	r3.MustRegister(Target{
		Name: "a", Description: "d",
		GPU: g, CPU: cpumodel.XeonE5405(),
		Bus: pcie.DefaultConfig(), BusName: "PCIe v1 x16",
	})
	if r3.Fingerprint() == fp {
		t.Error("fingerprint ignored a GPU parameter change")
	}

	if Default.Fingerprint() != Default.Fingerprint() {
		t.Error("Default registry fingerprint unstable")
	}
}
