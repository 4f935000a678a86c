// Package target makes hardware targets first-class: a named,
// validated combination of GPU architecture, CPU architecture, and
// bus configuration that the projection pipeline can be pointed at.
//
// The paper evaluates exactly one node (Xeon E5405 + Quadro FX 5600 +
// PCIe v1 x16), but its §V-C sensitivity discussion asks how the
// verdict shifts on other hardware. This package turns that question
// into an API: a Registry maps short stable names ("fx5600-pcie1",
// "c2050-pcie3") to Target values, and a Target is a machine factory
// — Machine(seed) builds the simulated node the staged engine
// evaluates. The Default registry is seeded with every built-in GPU
// preset crossed with the PCIe generations on the paper's CPU, plus a
// newer-CPU row per GPU so projections vary on the CPU axis too.
//
// Names are part of the public surface: the grophecy -target flag,
// the daemon's ?target= parameter and GET /targets endpoint, and the
// calibration cache key (internal/engine) all speak registry names.
package target

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"grophecy/internal/core"
	"grophecy/internal/cpumodel"
	"grophecy/internal/errdefs"
	"grophecy/internal/gpu"
	"grophecy/internal/pcie"
)

// DefaultName is the registry name of the paper's evaluation node.
// Projections at this target are byte-identical to core.NewMachine.
const DefaultName = "fx5600-pcie1"

// Target is one fully specified hardware configuration.
type Target struct {
	// Name is the short registry key ("fx5600-pcie1"): lowercase
	// letters, digits, and dashes.
	Name string
	// Description is the human-readable summary shown by listings.
	Description string

	GPU gpu.Arch
	CPU cpumodel.Arch
	Bus pcie.Config
	// BusName labels the bus configuration ("PCIe v1 x16"); pcie.Config
	// itself is anonymous.
	BusName string
	// BusGen and BusLanes identify the link ("gen 3 x16"); 0/0 for
	// non-PCIe links like NVLink.
	BusGen   int
	BusLanes int
	// Memory is the host memory kind this target calibrates and
	// measures with. The zero value is pcie.Pinned — the paper's
	// assumption, and what every historical target name means.
	Memory pcie.MemoryKind
}

// nameOK reports whether s is a legal registry name.
func nameOK(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
		default:
			return false
		}
	}
	return s[0] != '-' && s[len(s)-1] != '-'
}

// Validate checks the target and every component in it.
func (t Target) Validate() error {
	if !nameOK(t.Name) {
		return errdefs.Invalidf("target: illegal name %q (want lowercase letters, digits, dashes)", t.Name)
	}
	if t.BusName == "" {
		return errdefs.Invalidf("target %s: empty bus name", t.Name)
	}
	if err := t.GPU.Validate(); err != nil {
		return fmt.Errorf("target %s: %w", t.Name, err)
	}
	if err := t.CPU.Validate(); err != nil {
		return fmt.Errorf("target %s: %w", t.Name, err)
	}
	if err := t.Bus.Validate(); err != nil {
		return fmt.Errorf("target %s: %w", t.Name, err)
	}
	if !t.Memory.Valid() {
		return errdefs.Invalidf("target %s: invalid memory kind %d", t.Name, t.Memory)
	}
	return nil
}

// Machine builds the simulated evaluation node for this target, with
// all noise streams derived from seed. It is the single factory the
// commands and the calibration cache use, replacing ad-hoc
// core.NewMachineWith call sites.
func (t Target) Machine(seed uint64) *core.Machine {
	return core.NewMachineWith(t.GPU, t.CPU, t.Bus, seed)
}

// String renders the component summary ("NVIDIA Quadro FX 5600 +
// Intel Xeon E5405 (8 threads) + PCIe v1 x16").
func (t Target) String() string {
	s := t.GPU.Name + " + " + t.CPU.Name + " + " + t.BusName
	if t.Memory == pcie.Pageable {
		s += " (pageable)"
	}
	return s
}

// Registry is a concurrency-safe name → Target map.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Target
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]Target)}
}

// Register validates t and adds it under its name. Re-registering an
// existing name is an error; registries are append-only so cached
// calibrations can never silently point at different hardware.
func (r *Registry) Register(t Target) error {
	if err := t.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[t.Name]; ok {
		return errdefs.Invalidf("target: %q already registered", t.Name)
	}
	r.m[t.Name] = t
	return nil
}

// MustRegister is Register, panicking on error (for init-time use).
func (r *Registry) MustRegister(t Target) {
	if err := r.Register(t); err != nil {
		panic(err)
	}
}

// Lookup returns the target registered under name.
func (r *Registry) Lookup(name string) (Target, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.m[name]
	return t, ok
}

// Names returns all registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fingerprint returns a content hash of the registry: a hex SHA-256
// over every registered target's full hardware definition, in name
// order. Persisted calibration snapshots (internal/store) embed this
// hash in their key, so editing a GPU preset, a CPU model, or a bus
// configuration — anything that would change what a calibration
// measures — invalidates every snapshot taken under the old
// definitions instead of silently replaying them against different
// hardware. Registries are append-only, so the fingerprint of a
// running process never changes after init.
func (r *Registry) Fingerprint() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		t := r.m[n]
		fmt.Fprintf(h, "%s|%+v|%+v|%+v|%s|gen%d|x%d|mem%d\n",
			t.Name, t.GPU, t.CPU, t.Bus, t.BusName, t.BusGen, t.BusLanes, t.Memory)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// List returns all registered targets in name order.
func (r *Registry) List() []Target {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ts := make([]Target, 0, len(r.m))
	for _, t := range r.m {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Name < ts[j].Name })
	return ts
}

// Default is the registry seeded with the built-in hardware matrix.
// Commands resolve -target / ?target= against it.
var Default = seed()

// Lookup resolves name against the Default registry. An empty name
// means DefaultName. Unknown names return an invalid-input error that
// lists what is registered, so HTTP surfaces map it to a 400 with an
// actionable message.
func Lookup(name string) (Target, error) {
	if name == "" {
		name = DefaultName
	}
	t, ok := Default.Lookup(name)
	if !ok {
		return Target{}, errdefs.Invalidf("target: unknown target %q (registered: %s)",
			name, strings.Join(Default.Names(), ", "))
	}
	return t, nil
}

// Resolve maps the -target / -gpu flag pair that grophecy and
// grophecyd share to a registered target: the named target, the
// legacy GPU-preset target, or DefaultName when both are empty.
func Resolve(name, gpuName string) (Target, error) {
	switch {
	case name != "" && gpuName != "":
		return Target{}, errdefs.Invalidf("-target and -gpu are mutually exclusive")
	case gpuName != "":
		return ForGPU(gpuName)
	}
	return Lookup(name)
}

// ForGPU returns the registered target that pairs the named GPU
// preset with the paper's CPU on the paper's PCIe v1 bus — the
// combination the legacy -gpu flag has always selected, now with a
// registry identity so it is cacheable.
func ForGPU(gpuName string) (Target, error) {
	for _, t := range Default.List() {
		if t.GPU.Name == gpuName &&
			t.CPU.Name == cpumodel.XeonE5405().Name &&
			t.BusName == pcie.Generations()[0].Name &&
			t.Memory == pcie.Pinned {
			return t, nil
		}
	}
	names := make([]string, 0, len(gpu.Presets()))
	for _, a := range gpu.Presets() {
		names = append(names, a.Name)
	}
	return Target{}, errdefs.Invalidf("target: unknown GPU preset %q (presets: %s)",
		gpuName, strings.Join(names, ", "))
}

// gpuSlug maps the built-in GPU presets to their name fragment.
func gpuSlug(a gpu.Arch) string {
	switch a.Name {
	case gpu.QuadroFX5600().Name:
		return "fx5600"
	case gpu.TeslaC1060().Name:
		return "c1060"
	case gpu.TeslaC2050().Name:
		return "c2050"
	default:
		s := strings.ToLower(a.Name)
		s = strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
				return r
			default:
				return '-'
			}
		}, s)
		return strings.Trim(s, "-")
	}
}

// busSlug maps a bus profile to its name fragment ("pcie3",
// "nvlink").
func busSlug(p pcie.Profile) string {
	if p.Gen == 0 {
		return "nvlink"
	}
	return fmt.Sprintf("pcie%d", p.Gen)
}

// seed builds the default matrix: every GPU preset × the era-matched
// PCIe generations on the paper's CPU, named "<gpu>-pcie<N>"; one
// newer-CPU variant per GPU on its era-matching bus, named
// "<gpu>-pcie<N>-x5650"; the fastest GPU preset on the modern bus
// profiles (PCIe v4/v5 and an NVLink-class link) with the newer CPU;
// and a "-pageable" host-memory variant of every row, so the pageable
// ablation is a first-class target rather than a code path.
func seed() *Registry {
	r := NewRegistry()
	profiles := pcie.Profiles()
	gens := profiles[:3]
	var pinned []Target
	for _, g := range gpu.Presets() {
		for i, gen := range gens {
			pinned = append(pinned, Target{
				Name:        fmt.Sprintf("%s-pcie%d", gpuSlug(g), i+1),
				Description: g.Name + " + " + cpumodel.XeonE5405().Name + " + " + gen.Name,
				GPU:         g,
				CPU:         cpumodel.XeonE5405(),
				Bus:         gen.Cfg,
				BusName:     gen.Name,
				BusGen:      gen.Gen,
				BusLanes:    gen.Lanes,
			})
		}
	}
	// The CPU axis: the same three GPUs against a Westmere node. Each
	// GPU rides its era-matching bus generation (G80 shipped on v1,
	// GT200 on v2, Fermi boards on v2/v3 systems).
	for i, g := range gpu.Presets() {
		gen := gens[i]
		pinned = append(pinned, Target{
			Name:        fmt.Sprintf("%s-pcie%d-x5650", gpuSlug(g), i+1),
			Description: g.Name + " + " + cpumodel.XeonX5650().Name + " + " + gen.Name,
			GPU:         g,
			CPU:         cpumodel.XeonX5650(),
			Bus:         gen.Cfg,
			BusName:     gen.Name,
			BusGen:      gen.Gen,
			BusLanes:    gen.Lanes,
		})
	}
	// The bus axis, extended past the paper's era: the fastest built-in
	// GPU on the modern link profiles, answering "how far does the
	// transfer share shrink on a current node" without touching the
	// kernel side of the comparison.
	modernGPU := gpu.Presets()[len(gpu.Presets())-1]
	for _, p := range profiles[3:] {
		pinned = append(pinned, Target{
			Name:        gpuSlug(modernGPU) + "-" + busSlug(p),
			Description: modernGPU.Name + " + " + cpumodel.XeonX5650().Name + " + " + p.Name,
			GPU:         modernGPU,
			CPU:         cpumodel.XeonX5650(),
			Bus:         p.Cfg,
			BusName:     p.Name,
			BusGen:      p.Gen,
			BusLanes:    p.Lanes,
		})
	}
	for _, t := range pinned {
		r.MustRegister(t)
		pg := t
		pg.Name = t.Name + "-pageable"
		pg.Description = t.Description + ", pageable host memory"
		pg.Memory = pcie.Pageable
		r.MustRegister(pg)
	}
	return r
}
