package pcie

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"grophecy/internal/errdefs"
	"grophecy/internal/units"
)

func newTestBus() *Bus { return NewBus(DefaultConfig()) }

// mustTime returns an unwrapper for (time, error) calls whose inputs
// are known-valid in the test at hand.
func mustTime(t *testing.T) func(float64, error) float64 {
	return func(v float64, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func TestDirectionString(t *testing.T) {
	if HostToDevice.String() != "CPU-to-GPU" || DeviceToHost.String() != "GPU-to-CPU" {
		t.Error("unexpected Direction strings")
	}
	if Direction(9).String() != "Direction(9)" {
		t.Error("unexpected fallback Direction string")
	}
	if !HostToDevice.Valid() || Direction(5).Valid() {
		t.Error("Direction.Valid wrong")
	}
}

func TestMemoryKindString(t *testing.T) {
	if Pinned.String() != "pinned" || Pageable.String() != "pageable" {
		t.Error("unexpected MemoryKind strings")
	}
	if MemoryKind(4).String() != "MemoryKind(4)" {
		t.Error("unexpected fallback MemoryKind string")
	}
	if !Pageable.Valid() || MemoryKind(4).Valid() {
		t.Error("MemoryKind.Valid wrong")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Pinned[0].SetupLatency = 0 },
		func(c *Config) { c.Pinned[1].Bandwidth = -1 },
		func(c *Config) { c.PageableSetup[0] = 0 },
		func(c *Config) { c.StagingBandwidth = 0 },
		func(c *Config) { c.StagingChunk = 0 },
		func(c *Config) { c.CmdBufThreshold = -1 },
		func(c *Config) { c.CmdBufBandwidth = 0 },
		func(c *Config) { c.LatencyJitterSigma = -0.1 },
		func(c *Config) { c.SpikeProbability = 1.5 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestNewBusPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBus accepted invalid config")
		}
	}()
	cfg := DefaultConfig()
	cfg.StagingChunk = 0
	NewBus(cfg)
}

func TestBaseTimeLinearInSizeForPinned(t *testing.T) {
	b := newTestBus()
	cfg := b.Config()
	for d := 0; d < NumDirections; d++ {
		dir := Direction(d)
		alpha := cfg.Pinned[d].SetupLatency
		beta := 1 / cfg.Pinned[d].Bandwidth
		for _, size := range []int64{0, 1, units.KB, units.MB, 512 * units.MB} {
			want := alpha + float64(size)*beta
			got := mustTime(t)(b.BaseTime(dir, Pinned, size))
			if math.Abs(got-want) > 1e-15 {
				t.Errorf("%v pinned BaseTime(%d) = %v, want %v", dir, size, got, want)
			}
		}
	}
}

func TestPinnedFasterThanPageableExceptSmallUploads(t *testing.T) {
	// Paper §III-C: "With the exception of CPU-to-GPU transfers
	// smaller than 2KB, a transfer using pinned memory is always
	// faster than an equivalent transfer using pageable memory."
	b := newTestBus()
	for _, dir := range []Direction{HostToDevice, DeviceToHost} {
		for p := 0; p <= 29; p++ {
			size := int64(1) << p
			pinned := mustTime(t)(b.BaseTime(dir, Pinned, size))
			pageable := mustTime(t)(b.BaseTime(dir, Pageable, size))
			small := dir == HostToDevice && size <= b.Config().CmdBufThreshold
			if small {
				if pageable >= pinned {
					t.Errorf("%v %s: pageable (%v) should beat pinned (%v) below cmdbuf threshold",
						dir, units.FormatBytes(size), pageable, pinned)
				}
			} else if pinned >= pageable {
				t.Errorf("%v %s: pinned (%v) should beat pageable (%v)",
					dir, units.FormatBytes(size), pinned, pageable)
			}
		}
	}
}

func TestBaseTimeMonotonicInSize(t *testing.T) {
	b := newTestBus()
	for _, dir := range []Direction{HostToDevice, DeviceToHost} {
		for _, kind := range []MemoryKind{Pinned, Pageable} {
			prev := -1.0
			for p := 0; p <= 29; p++ {
				size := int64(1) << p
				tt := mustTime(t)(b.BaseTime(dir, kind, size))
				if tt < prev {
					t.Errorf("%v %v: BaseTime not monotonic at %s", dir, kind, units.FormatBytes(size))
				}
				prev = tt
			}
		}
	}
}

func TestLargePinnedBandwidthApprox(t *testing.T) {
	// At 512MB the alpha term is negligible; effective bandwidth
	// should be within 1% of the configured link bandwidth.
	b := newTestBus()
	size := int64(512 * units.MB)
	for d := 0; d < NumDirections; d++ {
		tt := mustTime(t)(b.BaseTime(Direction(d), Pinned, size))
		bw := float64(size) / tt
		want := b.Config().Pinned[d].Bandwidth
		if math.Abs(bw-want)/want > 0.01 {
			t.Errorf("%v: effective bw %v, want ~%v", Direction(d), bw, want)
		}
	}
}

func TestTransferNoiseIsBoundedAndPositive(t *testing.T) {
	b := newTestBus()
	for i := 0; i < 2000; i++ {
		tt := mustTime(t)(b.Transfer(HostToDevice, Pinned, units.KB))
		if tt <= 0 {
			t.Fatalf("transfer time %v not positive", tt)
		}
		base := mustTime(t)(b.BaseTime(HostToDevice, Pinned, units.KB))
		if tt > base*10 {
			t.Fatalf("transfer time %v implausibly larger than base %v", tt, base)
		}
	}
}

func TestTransferMeanNearBase(t *testing.T) {
	b := newTestBus()
	for _, size := range []int64{units.KB, units.MB, 64 * units.MB} {
		base := mustTime(t)(b.BaseTime(DeviceToHost, Pinned, size))
		mean := mustTime(t)(b.MeasureMean(DeviceToHost, Pinned, size, 400))
		if math.Abs(mean-base)/base > 0.05 {
			t.Errorf("size %s: mean %v deviates more than 5%% from base %v",
				units.FormatBytes(size), mean, base)
		}
	}
}

func TestRelativeNoiseShrinksWithSize(t *testing.T) {
	// Fig 4 shape: relative variation is larger at small sizes and
	// essentially zero above 1MB.
	b := newTestBus()
	noiseAt := func(size int64) float64 {
		base := mustTime(t)(b.BaseTime(HostToDevice, Pinned, size))
		var dev float64
		const n = 200
		for i := 0; i < n; i++ {
			d := mustTime(t)(b.Transfer(HostToDevice, Pinned, size)) - base
			dev += d * d
		}
		return math.Sqrt(dev/n) / base
	}
	small := noiseAt(1)
	large := noiseAt(16 * units.MB)
	if small < 2*large {
		t.Errorf("relative noise at 1B (%v) should dwarf noise at 16MB (%v)", small, large)
	}
	if large > 0.02 {
		t.Errorf("large-transfer relative noise %v should be under 2%%", large)
	}
}

func TestDeterministicAcrossBuses(t *testing.T) {
	a, b := newTestBus(), newTestBus()
	for i := 0; i < 100; i++ {
		ta := mustTime(t)(a.Transfer(HostToDevice, Pageable, 4096))
		tb := mustTime(t)(b.Transfer(HostToDevice, Pageable, 4096))
		if ta != tb {
			t.Fatalf("same-seed buses diverged at transfer %d: %v vs %v", i, ta, tb)
		}
	}
}

func TestSeedChangesNoise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	a := NewBus(cfg)
	cfg.Seed = 2
	b := NewBus(cfg)
	same := 0
	for i := 0; i < 50; i++ {
		if mustTime(t)(a.Transfer(HostToDevice, Pinned, units.KB)) == mustTime(t)(b.Transfer(HostToDevice, Pinned, units.KB)) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestStatsAccumulate(t *testing.T) {
	b := newTestBus()
	mustTime(t)(b.Transfer(HostToDevice, Pinned, 100))
	mustTime(t)(b.Transfer(DeviceToHost, Pinned, 200))
	s := b.Stats()
	if s.Transfers != 2 || s.BytesMoved != 300 || s.BusySecs <= 0 {
		t.Errorf("stats = %+v", s)
	}
	b.ResetStats()
	if s := b.Stats(); s.Transfers != 0 || s.BytesMoved != 0 || s.BusySecs != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestZeroByteTransferCostsAboutSetup(t *testing.T) {
	b := newTestBus()
	base := mustTime(t)(b.BaseTime(HostToDevice, Pinned, 0))
	if base != b.Config().Pinned[HostToDevice].SetupLatency {
		t.Errorf("zero-byte pinned base = %v", base)
	}
	if tt := mustTime(t)(b.Transfer(HostToDevice, Pinned, 0)); tt <= 0 {
		t.Errorf("zero-byte transfer time = %v", tt)
	}
}

func TestRejectsBadArgs(t *testing.T) {
	b := newTestBus()
	assertInvalid := func(name string, f func() (float64, error)) {
		if _, err := f(); !errors.Is(err, errdefs.ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", name, err)
		}
	}
	assertInvalid("negative size", func() (float64, error) { return b.BaseTime(HostToDevice, Pinned, -1) })
	assertInvalid("bad direction", func() (float64, error) { return b.BaseTime(Direction(7), Pinned, 1) })
	assertInvalid("bad kind", func() (float64, error) { return b.BaseTime(HostToDevice, MemoryKind(7), 1) })
	assertInvalid("zero runs", func() (float64, error) { return b.MeasureMean(HostToDevice, Pinned, 1, 0) })
}

func TestConcurrentTransfersSafe(t *testing.T) {
	b := newTestBus()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				b.Transfer(HostToDevice, Pinned, units.KB)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s := b.Stats(); s.Transfers != 1600 {
		t.Errorf("transfers = %d, want 1600", s.Transfers)
	}
}

func TestPageableStagingSlowerAtLargeSizes(t *testing.T) {
	// The staged path pays link + memcpy per byte; at 512MB pageable
	// should be meaningfully (>25%) slower than pinned.
	b := newTestBus()
	size := int64(512 * units.MB)
	for _, dir := range []Direction{HostToDevice, DeviceToHost} {
		ratio := mustTime(t)(b.BaseTime(dir, Pageable, size)) / mustTime(t)(b.BaseTime(dir, Pinned, size))
		if ratio < 1.25 {
			t.Errorf("%v: pageable/pinned ratio at 512MB = %v, want > 1.25", dir, ratio)
		}
	}
}

func TestQuickBaseTimeProperties(t *testing.T) {
	b := newTestBus()
	prop := func(rawSize uint32, d, k uint8) bool {
		size := int64(rawSize)
		dir := Direction(int(d) % NumDirections)
		kind := Pinned
		if k%2 == 1 {
			kind = Pageable
		}
		tt, err := b.BaseTime(dir, kind, size)
		// Always positive, and at least the per-byte streaming time.
		if err != nil || tt <= 0 {
			return false
		}
		return tt >= float64(size)/b.Config().Pinned[dir].Bandwidth
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransferAtLeastZero(t *testing.T) {
	b := newTestBus()
	prop := func(rawSize uint16) bool {
		tt, err := b.Transfer(DeviceToHost, Pageable, int64(rawSize))
		return err == nil && tt >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
