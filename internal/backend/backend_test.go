package backend

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"grophecy/internal/errdefs"
	"grophecy/internal/gpu"
	"grophecy/internal/pcie"
	"grophecy/internal/units"
	"grophecy/internal/xfermodel"
)

// components builds a fresh calibration input at a fixed seed.
func components(seed uint64) Components {
	return componentsOn(busAt(seed), seed)
}

// busAt is a fresh default bus at seed.
func busAt(seed uint64) *pcie.Bus {
	cfg := pcie.DefaultConfig()
	cfg.Seed = seed
	return pcie.NewBus(cfg)
}

// componentsOn builds a calibration input that samples bus with the
// paper's raw mean.
func componentsOn(bus *pcie.Bus, seed uint64) Components {
	return Components{
		Sample: xfermodel.MeanSampler(bus, xfermodel.DefaultCalibration().Runs),
		Arch:   gpu.QuadroFX5600(),
		Seed:   seed,
	}
}

func TestRegistryDefaults(t *testing.T) {
	want := []string{"analytic", "fitted", "piecewise"}
	if got := Default.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Default.Names() = %v, want %v", got, want)
	}
	b, err := Get("")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != DefaultName {
		t.Errorf("empty name resolved to %q, want %q", b.Name(), DefaultName)
	}
	if _, err := Get("nope"); !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Errorf("unknown backend: %v, want ErrInvalidInput", err)
	}
	list := Default.List()
	if len(list) != len(want) {
		t.Fatalf("List() has %d backends, want %d", len(list), len(want))
	}
	for i, b := range list {
		if b.Name() != want[i] {
			t.Errorf("List()[%d] = %q, want %q", i, b.Name(), want[i])
		}
		if b.Description() == "" {
			t.Errorf("backend %q has an empty description", b.Name())
		}
	}
}

func TestRegisterRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "UPPER", "-lead", "trail-", "spa ce"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", name)
				}
			}()
			r := &Registry{}
			r.Register(named{name})
		}()
	}
	// Duplicate registration panics too.
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	r := &Registry{}
	r.Register(named{"dup"})
	r.Register(named{"dup"})
}

// named is a minimal backend for registry tests.
type named struct{ name string }

func (n named) Name() string        { return n.name }
func (n named) Description() string { return "test backend" }
func (n named) Calibrate(context.Context, Components, xfermodel.CalibrationConfig) (Instance, Fit, error) {
	return Instance{}, Fit{}, errors.New("unimplemented")
}
func (n named) Restore(Fit) (Instance, error) { return Instance{}, errors.New("unimplemented") }

func TestFitValidate(t *testing.T) {
	good := Fit{Backend: "analytic", Kind: pcie.Pinned, Payload: []byte(`{}`)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid fit rejected: %v", err)
	}
	cases := map[string]Fit{
		"empty":      {},
		"no backend": {Kind: pcie.Pinned, Payload: []byte(`{}`)},
		"bad kind":   {Backend: "analytic", Kind: pcie.MemoryKind(9), Payload: []byte(`{}`)},
		"no payload": {Backend: "analytic", Kind: pcie.Pinned},
		"bad name":   {Backend: "Not A Name", Kind: pcie.Pinned, Payload: []byte(`{}`)},
	}
	for name, fit := range cases {
		if err := fit.Validate(); !errors.Is(err, errdefs.ErrInvalidInput) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidInput", name, err)
		}
	}
}

// TestCalibrateRestoreRoundTrip: for every registered backend, a
// projector restored from the serialized fit predicts exactly what
// the live instance predicts — the invariant the snapshot store's
// warm start depends on.
func TestCalibrateRestoreRoundTrip(t *testing.T) {
	sizes := []int64{512, 64 * units.KB, units.MB, 16 * units.MB}
	for _, name := range Default.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			live, fit, err := b.Calibrate(context.Background(), components(7), xfermodel.DefaultCalibration())
			if err != nil {
				t.Fatal(err)
			}
			if fit.Backend != name {
				t.Errorf("fit names backend %q, want %q", fit.Backend, name)
			}
			if err := fit.Validate(); err != nil {
				t.Fatalf("calibrated fit does not validate: %v", err)
			}
			restored, err := b.Restore(fit)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range sizes {
				for d := pcie.Direction(0); d < pcie.NumDirections; d++ {
					want, err := live.Transfer.PredictTransfer(d, pcie.Pinned, size)
					if err != nil {
						t.Fatal(err)
					}
					got, err := restored.Transfer.PredictTransfer(d, pcie.Pinned, size)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%v %d bytes: restored %g != live %g", d, size, got, want)
					}
				}
			}
			if !restored.Linear.Valid() {
				t.Error("restored instance carries an invalid linear summary")
			}
		})
	}
}

// TestRestoreRejectsMismatches: a fit from one backend or memory kind
// never restores through another.
func TestRestoreRejectsMismatches(t *testing.T) {
	b, err := Get("analytic")
	if err != nil {
		t.Fatal(err)
	}
	_, fit, err := b.Calibrate(context.Background(), components(7), xfermodel.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	wrong := fit
	wrong.Backend = "fitted"
	if f, err := Get("fitted"); err == nil {
		if _, err := f.Restore(wrong); err == nil {
			t.Error("fitted backend restored an analytic payload")
		}
	}
	if _, err := b.Restore(wrong); err == nil {
		t.Error("analytic backend restored a fit labeled fitted")
	}
	garbage := fit
	garbage.Payload = []byte(`{"Dir":null}`)
	if _, err := b.Restore(garbage); err == nil {
		t.Error("analytic backend restored an implausible payload")
	}
}

// TestTransferKindMismatch: asking a calibrated instance for the
// other memory kind is an error, not a silent wrong answer.
func TestTransferKindMismatch(t *testing.T) {
	for _, name := range Default.Names() {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, _, err := b.Calibrate(context.Background(), components(7), xfermodel.DefaultCalibration())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Transfer.PredictTransfer(pcie.HostToDevice, pcie.Pageable, units.MB); err == nil {
			t.Errorf("%s: pinned-calibrated instance served a pageable prediction", name)
		}
	}
}

// TestFittedLeavesBusDrawsIdentical: the fitted backend's
// microbenchmarks must not consume bus draws beyond its transfer
// sweep. The bus is exercised identically per grid, so after a fitted
// calibration and a bare least-squares sweep over the same grid the
// two buses' next transfers must agree.
func TestFittedLeavesBusDrawsIdentical(t *testing.T) {
	cfg := xfermodel.DefaultCalibration()
	cfg.Sizes = []int64{cfg.SmallSize, cfg.LargeSize}

	a := busAt(11)
	if _, _, err := mustGet(t, "fitted").Calibrate(context.Background(), componentsOn(a, 11), cfg); err != nil {
		t.Fatal(err)
	}
	b := busAt(11)
	grid := cfg.Sizes
	if _, err := xfermodel.CalibrateLeastSquares(xfermodel.MeanSampler(b, cfg.Runs), cfg, grid); err != nil {
		t.Fatal(err)
	}
	ta, errA := a.Transfer(pcie.HostToDevice, pcie.Pinned, units.MB)
	tb, errB := b.Transfer(pcie.HostToDevice, pcie.Pinned, units.MB)
	if errA != nil || errB != nil || ta != tb {
		t.Errorf("fitted calibration consumed bus draws beyond its transfer sweep: next transfer %g (%v) vs %g (%v)",
			ta, errA, tb, errB)
	}
}

func mustGet(t *testing.T, name string) Backend {
	t.Helper()
	b, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BenchmarkBackendDispatch prices the Backend interface indirection
// on the projection hot path: one transfer prediction through a
// calibrated Instance. Gated by make bench-gate against the base
// revision, like every benchmark in its run set — the dispatch must
// stay in the same cost class as calling the bus model directly.
func BenchmarkBackendDispatch(b *testing.B) {
	inst, _, err := analyticBackend{}.Calibrate(context.Background(), components(7), xfermodel.DefaultCalibration())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Transfer.PredictTransfer(pcie.HostToDevice, pcie.Pinned, units.MB); err != nil {
			b.Fatal(err)
		}
	}
}
