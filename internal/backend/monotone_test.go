package backend_test

import (
	"context"
	"slices"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/experiments"
	"grophecy/internal/pcie"
	"grophecy/internal/target"
	"grophecy/internal/xfermodel"
)

// monotoneSizes is every power of two from 1 B to 1 GB and each of
// those ±1 byte, sorted: it covers every default calibration knot and
// the byte on either side of it.
func monotoneSizes() []int64 {
	var sizes []int64
	for p := int64(1); p <= 1<<30; p <<= 1 {
		sizes = append(sizes, p-1, p, p+1)
	}
	slices.Sort(sizes)
	return slices.Compact(sizes)
}

// checkMonotone calibrates every backend for both memory kinds with
// the paper's raw-mean protocol on the bus of tgt's machine at seed,
// and fails on any pair of sizes whose predicted transfer time decreases.
func checkMonotone(t *testing.T, tgt target.Target, seed uint64, sizes []int64) {
	t.Helper()
	for _, b := range backend.Default.List() {
		for _, kind := range []pcie.MemoryKind{pcie.Pinned, pcie.Pageable} {
			m := tgt.Machine(seed)
			cfg := xfermodel.DefaultCalibration()
			cfg.Kind = kind
			comp := backend.Components{Sample: xfermodel.MeanSampler(m.Bus, cfg.Runs), Arch: m.GPUArch, Seed: m.Seed}
			inst, _, err := b.Calibrate(context.Background(), comp, cfg)
			if err != nil {
				t.Fatalf("%s seed %d %s %v: %v", tgt.Name, seed, b.Name(), kind, err)
			}
			for d := 0; d < pcie.NumDirections; d++ {
				dir := pcie.Direction(d)
				prev := 0.0
				for i, size := range sizes {
					got, err := inst.Transfer.PredictTransfer(dir, kind, size)
					if err != nil {
						t.Fatalf("%s seed %d %s %v %v %d B: %v", tgt.Name, seed, b.Name(), kind, dir, size, err)
					}
					if i > 0 && got < prev {
						t.Errorf("%s seed %d %s %v %v: %d B predicts %.6g s, below %d B's %.6g s",
							tgt.Name, seed, b.Name(), kind, dir, size, got, sizes[i-1], prev)
						break
					}
					prev = got
				}
			}
		}
	}
}

// TestTransferPredictionMonotoneInSize is the metamorphic law
// "transfer time is monotone in data size", for every backend, memory
// kind and direction: on the default target over seeds 0-199, and at
// the default seed on every registered target.
func TestTransferPredictionMonotoneInSize(t *testing.T) {
	sizes := monotoneSizes()
	def, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 200; seed++ {
		checkMonotone(t, def, seed, sizes)
	}
	for _, tgt := range target.Default.List() {
		checkMonotone(t, tgt, experiments.DefaultSeed, sizes)
	}
}
