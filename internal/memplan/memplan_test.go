package memplan

import (
	"strings"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/brs"
	"grophecy/internal/datausage"
	"grophecy/internal/pcie"
	"grophecy/internal/skeleton"
	"grophecy/internal/units"
)

func calibratedModels(t *testing.T) Models {
	t.Helper()
	bus := pcie.NewBus(pcie.DefaultConfig())
	alloc := pcie.NewAllocator(bus, pcie.DefaultAllocConfig())
	ms, err := Calibrate(bus, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestAllocModelPredict(t *testing.T) {
	m := AllocModel{Fixed: 60e-6, PerByte: 0.25e-9}
	if got := m.Predict(0); got != 60e-6 {
		t.Errorf("Predict(0) = %v", got)
	}
	want := 60e-6 + 0.25e-9*float64(units.GB)
	if got := m.Predict(units.GB); got != want {
		t.Errorf("Predict(1GB) = %v, want %v", got, want)
	}
	if !m.Valid() || (AllocModel{}).Valid() {
		t.Error("Valid wrong")
	}
	if !strings.Contains(m.String(), "us") {
		t.Errorf("String = %q", m.String())
	}
}

func TestAllocModelPredictPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	AllocModel{Fixed: 1}.Predict(-1)
}

func TestDefaultAllocCalibrationValid(t *testing.T) {
	if err := DefaultAllocCalibration().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []AllocCalibration{
		{Runs: 0, SmallSize: 1, LargeSize: 2},
		{Runs: 1, SmallSize: 0, LargeSize: 2},
		{Runs: 1, SmallSize: 4, LargeSize: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCalibrateAllocRecoversParams(t *testing.T) {
	bus := pcie.NewBus(pcie.DefaultConfig())
	alloc := pcie.NewAllocator(bus, pcie.DefaultAllocConfig())
	truth := alloc.Config().Alloc
	for _, kind := range []pcie.MemoryKind{pcie.Pinned, pcie.Pageable} {
		m, err := CalibrateAlloc(alloc, kind, DefaultAllocCalibration())
		if err != nil {
			t.Fatal(err)
		}
		// PerByte within 15% (noisy allocations, 10-run means).
		if truth[kind].PerByte > 0 {
			e := (m.PerByte - truth[kind].PerByte) / truth[kind].PerByte
			if e < -0.15 || e > 0.15 {
				t.Errorf("%v: PerByte %v vs truth %v", kind, m.PerByte, truth[kind].PerByte)
			}
		}
	}
	if _, err := CalibrateAlloc(alloc, pcie.MemoryKind(9), DefaultAllocCalibration()); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := CalibrateAlloc(alloc, pcie.Pinned, AllocCalibration{}); err == nil {
		t.Error("bad calibration accepted")
	}
}

func TestCalibrateBuildsFourValidModels(t *testing.T) {
	ms := calibratedModels(t)
	if !ms.Valid() {
		t.Fatal("invalid models")
	}
	// Pinned transfers faster, pinned allocation slower: both facts
	// must survive calibration.
	size := int64(16 * units.MB)
	pinned, err := ms.Transfer[pcie.Pinned].Predict(pcie.DeviceToHost, size)
	if err != nil {
		t.Fatal(err)
	}
	pageable, err := ms.Transfer[pcie.Pageable].Predict(pcie.DeviceToHost, size)
	if err != nil {
		t.Fatal(err)
	}
	if pinned >= pageable {
		t.Error("pinned transfer model not faster than pageable")
	}
	if ms.Alloc[pcie.Pinned].Predict(size) <= ms.Alloc[pcie.Pageable].Predict(size) {
		t.Error("pinned alloc model not more expensive than pageable")
	}
}

// tinyUploadPlan builds a plan with one small upload-only array.
func tinyUploadPlan(size int64) datausage.Plan {
	a := skeleton.NewArray("small", skeleton.Float32, size/4)
	return datausage.Plan{
		Uploads: []datausage.Transfer{
			{Dir: datausage.Upload, Section: brs.WholeArray(a)},
		},
	}
}

func TestSmallUploadPrefersPageable(t *testing.T) {
	// Under 2KB, pageable wins on both transfer (command buffer) and
	// allocation: the planner must pick it.
	ms := calibratedModels(t)
	plan, err := Build(tinyUploadPlan(1024), ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Choices) != 1 {
		t.Fatalf("choices = %d", len(plan.Choices))
	}
	if plan.Choices[0].Kind != pcie.Pageable {
		t.Errorf("small upload planned as %v, want pageable", plan.Choices[0].Kind)
	}
}

func TestRepeatedLargeTransferPrefersPinned(t *testing.T) {
	// A large array crossing the bus twice (in and out) amortizes the
	// pinning cost: pinned must win.
	ms := calibratedModels(t)
	a := skeleton.NewArray("big", skeleton.Float32, 16*1024*1024) // 64MB
	plan, err := Build(datausage.Plan{
		Uploads:   []datausage.Transfer{{Dir: datausage.Upload, Section: brs.WholeArray(a)}},
		Downloads: []datausage.Transfer{{Dir: datausage.Download, Section: brs.WholeArray(a)}},
	}, ms)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Choices[0].Kind != pcie.Pinned {
		t.Errorf("64MB in+out planned as %v, want pinned", plan.Choices[0].Kind)
	}
	if len(plan.Choices[0].Dirs) != 2 {
		t.Errorf("dirs = %v, want both", plan.Choices[0].Dirs)
	}
}

func TestPlannedNeverWorseThanEitherPolicy(t *testing.T) {
	ms := calibratedModels(t)
	for _, w := range bench.MustAll() {
		tp, err := datausage.Analyze(w.Seq, w.Hints)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Build(tp, ms)
		if err != nil {
			t.Fatal(err)
		}
		if plan.TotalPlanned > plan.TotalPinned+1e-12 {
			t.Errorf("%s %s: planned %v worse than all-pinned %v",
				w.Name, w.DataSize, plan.TotalPlanned, plan.TotalPinned)
		}
		if plan.TotalPlanned > plan.TotalPageable+1e-12 {
			t.Errorf("%s %s: planned %v worse than all-pageable %v",
				w.Name, w.DataSize, plan.TotalPlanned, plan.TotalPageable)
		}
		if s := plan.Savings(); s < 0 || s > 1 {
			t.Errorf("%s %s: savings %v out of range", w.Name, w.DataSize, s)
		}
	}
}

func TestStassuijPlannerChoices(t *testing.T) {
	// Stassuij exposes all three regimes:
	//   - tiny CSR vectors (532B..16KB): pageable, both for the
	//     command-buffer upload path and to skip pinning;
	//   - y crosses the bus twice (in and out): pinning amortizes,
	//     pinned wins;
	//   - x crosses only once: pinning a 4MB buffer for a single
	//     upload roughly cancels out, so either kind is defensible —
	//     the costs must be within ~15% of each other.
	ms := calibratedModels(t)
	w := bench.Stassuij()
	tp, err := datausage.Analyze(w.Seq, w.Hints)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(tp, ms)
	if err != nil {
		t.Fatal(err)
	}
	choices := make(map[string]Choice)
	for _, c := range plan.Choices {
		choices[c.Array.Name] = c
	}
	if got := choices["csr_rowptr"].Kind; got != pcie.Pageable {
		t.Errorf("csr_rowptr planned %v, want pageable", got)
	}
	if got := choices["y"].Kind; got != pcie.Pinned {
		t.Errorf("y (in+out) planned %v, want pinned", got)
	}
	x := choices["x"]
	gap := (x.CostPinned - x.CostPageable) / x.CostPinned
	if gap < -0.15 || gap > 0.15 {
		t.Errorf("x: single-upload pinned/pageable costs should be close, gap = %v", gap)
	}
	if plan.Savings() <= 0 {
		t.Errorf("savings = %v, want > 0", plan.Savings())
	}
}

func TestBuildRejectsInvalidModels(t *testing.T) {
	if _, err := Build(datausage.Plan{}, Models{}); err == nil {
		t.Error("invalid models accepted")
	}
}

func TestPlanString(t *testing.T) {
	ms := calibratedModels(t)
	w := bench.Stassuij()
	tp, err := datausage.Analyze(w.Seq, w.Hints)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(tp, ms)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	for _, want := range []string{"memory plan", "csr_vals", "pinned"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}
