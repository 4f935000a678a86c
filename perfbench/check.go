package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/engine"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
	"grophecy/internal/target"
)

// reference recomputes responses in process, through the same library
// path the daemon serves them on: engine.Pool for the projector, the
// core stage engine for the evaluation, report.JSON for the bytes.
type reference struct {
	pool *engine.Pool
	eng  *core.Engine
}

func newReference(eng *core.Engine) *reference {
	return &reference{pool: engine.NewPool(0), eng: eng}
}

// project evaluates wl at (tgt, backend, seed) and renders the report.
func (ref *reference) project(ctx context.Context, tgt target.Target, backendName string, seed uint64, wl core.Workload) ([]byte, core.Report, error) {
	p, err := ref.pool.Projector(ctx, tgt, backendName, seed, tgt.Memory)
	if err != nil {
		return nil, core.Report{}, err
	}
	rep, err := ref.eng.Evaluate(ctx, p, wl)
	if err != nil {
		return nil, core.Report{}, err
	}
	data, err := report.JSON(rep)
	return data, rep, err
}

// checkProject compares one /project response byte for byte with the
// reference answer for its request.
func (ref *reference) checkProject(ctx context.Context, r request, body []byte) error {
	wl, err := sklang.Parse(string(r.body))
	if err != nil {
		return err
	}
	tgt, err := target.Lookup("")
	if err != nil {
		return err
	}
	want, _, err := ref.project(ctx, tgt, r.backend, r.seed, wl)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s %s: response differs from the in-process reference (%d vs %d bytes)",
			r.path, wl.Name, len(body), len(want))
	}
	return nil
}

// namedWorkload builds a batch job's paper workload.
func namedWorkload(j batchJob) (core.Workload, error) {
	var (
		w   core.Workload
		err error
	)
	switch j.Workload {
	case "CFD":
		w, err = bench.CFD(j.Size)
	case "HotSpot":
		w, err = bench.HotSpot(j.Size)
	case "SRAD":
		w, err = bench.SRAD(j.Size)
	case "Stassuij":
		w = bench.Stassuij()
	default:
		err = fmt.Errorf("unknown batch workload %q", j.Workload)
	}
	if err == nil && j.Iters > 0 {
		w = w.WithIterations(j.Iters)
	}
	return w, err
}

// checkBatchRows compares every row's report with the reference for
// the (workload, target, backend, seed, iters) the row says ran, and
// checks that each bestTarget child ran on its fastest parent's target.
func (ref *reference) checkBatchRows(ctx context.Context, jobs []batchJob, rows []rowMeta) error {
	speedup := make(map[string]float64, len(rows))
	targetOf := make(map[string]string, len(rows))
	for _, row := range rows {
		if row.Index < 0 || row.Index >= len(jobs) {
			return fmt.Errorf("batch row index %d out of range", row.Index)
		}
		job := jobs[row.Index]
		wl, err := namedWorkload(job)
		if err != nil {
			return err
		}
		tgt, err := target.Lookup(row.Target)
		if err != nil {
			return err
		}
		data, rep, err := ref.project(ctx, tgt, row.Backend, row.Seed, wl)
		if err != nil {
			return err
		}
		var want bytes.Buffer
		if err := json.Compact(&want, data); err != nil {
			return err
		}
		if !bytes.Equal(row.Report, want.Bytes()) {
			return fmt.Errorf("batch row %s: report differs from the in-process reference", row.ID)
		}
		speedup[row.ID], targetOf[row.ID] = rep.SpeedupFull(), row.Target
		if job.FromParent == "bestTarget" {
			best := job.DependsOn[0]
			for _, p := range job.DependsOn[1:] {
				if speedup[p] > speedup[best] {
					best = p
				}
			}
			if row.Target != targetOf[best] {
				return fmt.Errorf("batch row %s ran on %s, but its best parent %s ran on %s",
					row.ID, row.Target, best, targetOf[best])
			}
		}
	}
	return nil
}

// errFullPct returns derived.errFull × 100 from one report JSON.
func errFullPct(reportJSON []byte) (float64, error) {
	var r struct {
		Derived struct {
			ErrFull *float64 `json:"errFull"`
		} `json:"derived"`
	}
	if err := json.Unmarshal(reportJSON, &r); err != nil {
		return 0, err
	}
	if r.Derived.ErrFull == nil {
		return 0, fmt.Errorf("report has no derived.errFull")
	}
	return *r.Derived.ErrFull * 100, nil
}
