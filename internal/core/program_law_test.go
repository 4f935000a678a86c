package core_test

import (
	"context"
	"reflect"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/program"
)

// TestOnePhaseProgramLaw: a workload wrapped as a one-phase program
// (same sequence, same hints) evaluates to the same kernel and
// transfer rows and the same four time totals as the workload itself,
// on a fresh projector at the same seed, for every backend. Program
// phases and the engine run one kernel loop and one transfer loop, so
// the backend's kernel and transfer models reach both.
func TestOnePhaseProgramLaw(t *testing.T) {
	fresh := func(t *testing.T, bk string) *core.Projector {
		t.Helper()
		p, err := core.New(context.Background(), core.NewMachine(machineSeed), core.Options{Backend: bk})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, bk := range backend.Default.Names() {
		for _, w := range bench.MustAll() {
			t.Run(bk+"/"+w.Name+" "+w.DataSize, func(t *testing.T) {
				want, err := fresh(t, bk).Evaluate(context.Background(), w)
				if err != nil {
					t.Fatal(err)
				}
				prog := &program.Program{Name: w.Name, Phases: []program.Phase{{Seq: w.Seq, Hints: w.Hints}}}
				got, err := fresh(t, bk).EvaluateProgram(context.Background(), prog, w.CPU)
				if err != nil {
					t.Fatal(err)
				}
				ph := got.Phases[0]
				if !reflect.DeepEqual(ph.Kernels, want.Kernels) {
					t.Errorf("kernel rows differ:\nprogram  %+v\nworkload %+v", ph.Kernels, want.Kernels)
				}
				if !reflect.DeepEqual(ph.Transfers, want.Transfers) {
					t.Errorf("transfer rows differ:\nprogram  %+v\nworkload %+v", ph.Transfers, want.Transfers)
				}
				pk, mk, px, mx := got.Totals()
				if pk != want.PredKernelTime || mk != want.MeasKernelTime ||
					px != want.PredTransferTime || mx != want.MeasTransferTime {
					t.Errorf("totals (%v, %v, %v, %v), workload (%v, %v, %v, %v)",
						pk, mk, px, mx,
						want.PredKernelTime, want.MeasKernelTime, want.PredTransferTime, want.MeasTransferTime)
				}
			})
		}
	}
}
