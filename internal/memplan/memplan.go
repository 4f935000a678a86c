// Package memplan implements the paper's stated future work (§VII):
// "we plan to expand the scope of the data transfer overhead modeling
// to explore the tradeoffs of using different types of memory (i.e.,
// pinned and pageable) and account for the overhead of memory
// allocation."
//
// GROPHECY++ proper assumes pinned memory because it is faster "in
// most typical use cases" (§III-C). That assumption has two holes the
// planner closes:
//
//   - CPU-to-GPU transfers under ~2 KB are faster from pageable
//     memory (the driver writes them straight into the command
//     buffer), and
//   - pinning a buffer (cudaHostAlloc) is expensive — a fixed syscall
//     cost plus a per-page locking cost that for one-shot transfers
//     of large buffers can exceed the bandwidth saved.
//
// The planner calibrates four empirical models on the target system —
// transfer time per memory kind (the paper's two-point scheme, §III-C)
// and allocation time per memory kind (same two-point idea) — then
// chooses a memory kind per array by minimizing
//
//	alloc(kind, bytes) + sum over directions of T_kind(bytes)
//
// jointly across the array's uploads and downloads (one host buffer
// serves both directions).
package memplan

import (
	"context"
	"errors"
	"fmt"

	"grophecy/internal/datausage"
	"grophecy/internal/pcie"
	"grophecy/internal/skeleton"
	"grophecy/internal/units"
	"grophecy/internal/xfermodel"
)

// AllocModel is the empirical host-allocation model T(d) = Fixed +
// PerByte*d, the allocation-side analogue of xfermodel.Model.
type AllocModel struct {
	Fixed   float64
	PerByte float64
}

// Predict returns the modeled allocation time for size bytes.
func (m AllocModel) Predict(size int64) float64 {
	if size < 0 {
		panic(fmt.Sprintf("memplan: negative allocation size %d", size))
	}
	return m.Fixed + m.PerByte*float64(size)
}

// Valid reports whether the parameters are plausible.
func (m AllocModel) Valid() bool { return m.Fixed > 0 && m.PerByte >= 0 }

// String renders the model in natural units.
func (m AllocModel) String() string {
	return fmt.Sprintf("A(d) = %.1fus + d*%.3fns/KB",
		m.Fixed/units.Microsecond, m.PerByte*float64(units.KB)/units.Nanosecond)
}

// AllocCalibration controls allocation-model calibration.
type AllocCalibration struct {
	Runs      int
	SmallSize int64
	LargeSize int64
}

// DefaultAllocCalibration mirrors the transfer calibration: two
// sizes, ten runs each. The small size measures the fixed syscall
// cost; the large one the per-page cost.
func DefaultAllocCalibration() AllocCalibration {
	return AllocCalibration{Runs: 10, SmallSize: 4 * units.KB, LargeSize: 64 * units.MB}
}

// Validate reports whether the calibration settings make sense.
func (c AllocCalibration) Validate() error {
	if c.Runs <= 0 {
		return errors.New("memplan: calibration needs at least one run")
	}
	if c.SmallSize <= 0 || c.LargeSize <= c.SmallSize {
		return errors.New("memplan: calibration sizes must satisfy 0 < small < large")
	}
	return nil
}

// CalibrateAlloc derives an AllocModel for one memory kind from two
// measurement points.
func CalibrateAlloc(a *pcie.Allocator, kind pcie.MemoryKind, cfg AllocCalibration) (AllocModel, error) {
	if err := cfg.Validate(); err != nil {
		return AllocModel{}, err
	}
	if !kind.Valid() {
		return AllocModel{}, fmt.Errorf("memplan: invalid memory kind %d", kind)
	}
	tSmall, err := a.MeasureMean(kind, cfg.SmallSize, cfg.Runs)
	if err != nil {
		return AllocModel{}, err
	}
	tLarge, err := a.MeasureMean(kind, cfg.LargeSize, cfg.Runs)
	if err != nil {
		return AllocModel{}, err
	}
	perByte := (tLarge - tSmall) / float64(cfg.LargeSize-cfg.SmallSize)
	if perByte < 0 {
		perByte = 0 // measurement noise on a size-independent allocator
	}
	m := AllocModel{Fixed: tSmall - perByte*float64(cfg.SmallSize), PerByte: perByte}
	if m.Fixed <= 0 {
		m.Fixed = tSmall
	}
	if !m.Valid() {
		return AllocModel{}, errors.New("memplan: calibration produced implausible parameters")
	}
	return m, nil
}

// Models bundles the four calibrated models the planner needs,
// indexed by pcie.MemoryKind.
type Models struct {
	Transfer [2]xfermodel.BusModel
	Alloc    [2]AllocModel
}

// Calibrate builds all four models on one machine: the paper's
// two-point transfer calibration per memory kind, plus the
// allocation calibration per memory kind.
func Calibrate(bus *pcie.Bus, alloc *pcie.Allocator) (Models, error) {
	var ms Models
	for _, kind := range []pcie.MemoryKind{pcie.Pinned, pcie.Pageable} {
		xcfg := xfermodel.DefaultCalibration()
		xcfg.Kind = kind
		tm, err := xfermodel.CalibrateTwoPoint(context.Background(), xfermodel.MeanSampler(bus, xcfg.Runs), xcfg, nil)
		if err != nil {
			return Models{}, fmt.Errorf("memplan: transfer calibration (%v): %w", kind, err)
		}
		ms.Transfer[kind] = tm
		am, err := CalibrateAlloc(alloc, kind, DefaultAllocCalibration())
		if err != nil {
			return Models{}, fmt.Errorf("memplan: allocation calibration (%v): %w", kind, err)
		}
		ms.Alloc[kind] = am
	}
	return ms, nil
}

// Valid reports whether every component model is plausible.
func (ms Models) Valid() bool {
	return ms.Transfer[pcie.Pinned].Valid() && ms.Transfer[pcie.Pageable].Valid() &&
		ms.Alloc[pcie.Pinned].Valid() && ms.Alloc[pcie.Pageable].Valid()
}

// kindCost prices one array's buffer under one memory kind: its
// allocation plus all its transfers.
func (ms Models) kindCost(kind pcie.MemoryKind, bytes int64, dirs []pcie.Direction) (float64, error) {
	total := ms.Alloc[kind].Predict(bytes)
	for _, d := range dirs {
		t, err := ms.Transfer[kind].Predict(d, bytes)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// Choice is the planner's decision for one array.
type Choice struct {
	Array *skeleton.Array
	Bytes int64
	// Dirs lists the directions the buffer crosses the bus.
	Dirs []pcie.Direction
	// Kind is the chosen memory kind.
	Kind pcie.MemoryKind
	// CostPinned and CostPageable are the predicted totals
	// (allocation + transfers) under each kind; Cost is the chosen
	// one.
	CostPinned   float64
	CostPageable float64
	Cost         float64
}

// Plan is the planner's output for one workload.
type Plan struct {
	Choices []Choice
	// Totals under the three policies (allocation + transfers).
	TotalPinned   float64
	TotalPageable float64
	TotalPlanned  float64
}

// Savings returns the planned policy's fractional saving over the
// paper's all-pinned assumption.
func (p Plan) Savings() float64 {
	if p.TotalPinned == 0 {
		return 0
	}
	return 1 - p.TotalPlanned/p.TotalPinned
}

// Build runs the planner over a transfer plan. Arrays appearing in
// both directions are priced jointly.
func Build(tp datausage.Plan, ms Models) (Plan, error) {
	if !ms.Valid() {
		return Plan{}, errors.New("memplan: invalid models")
	}
	type arrayUse struct {
		bytes int64
		dirs  []pcie.Direction
	}
	uses := make(map[*skeleton.Array]*arrayUse)
	var order []*skeleton.Array
	add := func(tr datausage.Transfer, dir pcie.Direction) {
		arr := tr.Array()
		u, ok := uses[arr]
		if !ok {
			u = &arrayUse{}
			uses[arr] = u
			order = append(order, arr)
		}
		if tr.Bytes() > u.bytes {
			u.bytes = tr.Bytes() // one buffer must hold the larger section
		}
		u.dirs = append(u.dirs, dir)
	}
	for _, tr := range tp.Uploads {
		add(tr, pcie.HostToDevice)
	}
	for _, tr := range tp.Downloads {
		add(tr, pcie.DeviceToHost)
	}

	var plan Plan
	for _, arr := range order {
		u := uses[arr]
		pinned, err := ms.kindCost(pcie.Pinned, u.bytes, u.dirs)
		if err != nil {
			return Plan{}, err
		}
		pageable, err := ms.kindCost(pcie.Pageable, u.bytes, u.dirs)
		if err != nil {
			return Plan{}, err
		}
		choice := Choice{
			Array:        arr,
			Bytes:        u.bytes,
			Dirs:         u.dirs,
			CostPinned:   pinned,
			CostPageable: pageable,
		}
		if pageable < pinned {
			choice.Kind, choice.Cost = pcie.Pageable, pageable
		} else {
			choice.Kind, choice.Cost = pcie.Pinned, pinned
		}
		plan.Choices = append(plan.Choices, choice)
		plan.TotalPinned += pinned
		plan.TotalPageable += pageable
		plan.TotalPlanned += choice.Cost
	}
	return plan, nil
}

// String renders the plan for human consumption.
func (p Plan) String() string {
	s := fmt.Sprintf("memory plan: pinned %s, pageable %s, planned %s (%.1f%% saved vs all-pinned)\n",
		units.FormatSeconds(p.TotalPinned), units.FormatSeconds(p.TotalPageable),
		units.FormatSeconds(p.TotalPlanned), 100*p.Savings())
	for _, c := range p.Choices {
		s += fmt.Sprintf("  %-24s %10s -> %v (pinned %s, pageable %s)\n",
			c.Array.Name, units.FormatBytes(c.Bytes), c.Kind,
			units.FormatSeconds(c.CostPinned), units.FormatSeconds(c.CostPageable))
	}
	return s
}
