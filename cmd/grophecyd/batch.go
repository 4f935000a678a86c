// POST /batch: multi-target, multi-workload projection in one
// request. The body is a JSON array of jobs; each job is either an
// inline skeleton source or a named paper benchmark, optionally
// pinned to a registered hardware target, backend, and seed.
//
// Jobs may declare dependency edges: an `id` names a job, `dependsOn`
// lists the ids it needs, and the handler schedules the resulting DAG
// (internal/batch/dag) — ready jobs dispatch onto the sweep worker
// pool as their parents succeed, every job's calibration goes through
// the shared singleflight pool so one (target, backend, seed) key
// calibrates once across the whole graph, and the descendants of a
// failed job are skipped without running (status 424, typed
// errdefs.ErrSkipped). A child may inherit from its parents' outcomes
// via `fromParent` selectors ("bestTarget", "bestBackend"): project a
// matrix, then sweep the winner, as one request.
//
// Delivery is either the buffered JSON document (the default — an
// edge-free job array returns bytes identical to the pre-DAG handler)
// or, under `Accept: application/x-ndjson`, a stream of one row per
// line in the graph's deterministic emission order, each row flushed
// as soon as it completes, followed by one summary line.
//
// Failures are per-job: one malformed skeleton or unknown target
// never takes down its neighbours — only its descendants.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"grophecy/internal/backend"
	"grophecy/internal/batch/dag"
	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/errdefs"
	"grophecy/internal/flight"
	"grophecy/internal/metrics"
	"grophecy/internal/obs"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
	"grophecy/internal/target"
	"grophecy/internal/trace"
)

// Batch limits: the body cap bounds memory per request, the job cap
// bounds fan-out per request (admission control bounds requests, not
// jobs, so a single giant batch must not become a backdoor).
const (
	maxBatchBytes = 8 << 20
	maxBatchJobs  = 256
)

// ndjsonContentType selects (and labels) the streamed delivery mode.
const ndjsonContentType = "application/x-ndjson"

// Batch instruments. Jobs count per outcome class — failures are jobs
// that produced their own error, skips the jobs that never ran
// because a dependency failed — and the depth gauge tracks the shape
// of the most recently scheduled DAG (1 = edge-free fan-out).
var (
	mBatchJobs = metrics.Default.MustCounter("grophecyd_batch_jobs_total",
		"batch jobs executed (any outcome)")
	mBatchJobFailures = metrics.Default.MustCounter("grophecyd_batch_job_failures_total",
		"batch jobs that failed with their own error (dependency skips not included)")
	mBatchJobsSkipped = metrics.Default.MustCounter("grophecyd_batch_jobs_skipped_total",
		"batch jobs skipped because a job they depend on failed")
	mBatchDagDepth = metrics.Default.MustGauge("grophecyd_batch_dag_depth",
		"dependency depth (longest chain, in jobs) of the most recent batch DAG")
)

// fromParent selectors a dependent job may use to inherit from its
// parents' outcomes. "Best" means the parent whose report projected
// the highest full speedup; ties go to the earlier row.
const (
	fromParentBestTarget  = "bestTarget"
	fromParentBestBackend = "bestBackend"
)

// batchJob is one element of the POST /batch request array. Exactly
// one of Skeleton (inline .sk source) and Workload (a named paper
// benchmark: CFD, HotSpot, SRAD, Stassuij) must be set; Size selects
// the named benchmark's data set. Target, Backend, and Seed default
// to the daemon's; Iters overrides the iteration count. ID names the
// job for DependsOn references from other jobs in the same batch, and
// FromParent replaces Target or Backend with the winning parent's at
// dispatch time.
type batchJob struct {
	ID         string   `json:"id,omitempty"`
	DependsOn  []string `json:"dependsOn,omitempty"`
	FromParent string   `json:"fromParent,omitempty"`
	Skeleton   string   `json:"skeleton,omitempty"`
	Workload   string   `json:"workload,omitempty"`
	Size       string   `json:"size,omitempty"`
	Target     string   `json:"target,omitempty"`
	Backend    string   `json:"backend,omitempty"`
	Seed       *uint64  `json:"seed,omitempty"`
	Iters      int      `json:"iters,omitempty"`
}

// resolvedJob is a batchJob after validation: everything a projection
// needs, or the error that stops it. For fromParent jobs the target
// or backend here is the static default, replaced at dispatch time
// once the parents' outcomes exist.
type resolvedJob struct {
	id         string
	dependsOn  []string
	fromParent string
	wl         core.Workload
	tgt        target.Target
	backend    string
	seed       uint64
	src        string // inline skeleton source, empty for named workloads
	err        error
}

// jobOutcome is what one scheduled job produces — including jobs that
// were skipped without running.
type jobOutcome struct {
	id        string
	dependsOn []string
	runID     string
	report    []byte       // report.JSON bytes, or report.CompactJSON when streamed; nil on failure
	rep       *core.Report // the projection, nil when it failed; feeds fromParent selection
	wl        string
	tgt       string
	backend   string
	seed      uint64
	err       error
}

// resolve validates one job against the daemon's registry and
// defaults. Resolution failures are per-job outcomes, not request
// failures.
func (s *server) resolve(j batchJob) resolvedJob {
	r := resolvedJob{
		id:         j.ID,
		dependsOn:  j.DependsOn,
		fromParent: j.FromParent,
		tgt:        s.tgt,
		backend:    backend.DefaultName,
		seed:       s.cfg.Seed,
	}
	if j.Target != "" {
		tgt, err := target.Lookup(j.Target)
		if err != nil {
			r.err = err
			return r
		}
		r.tgt = tgt
	}
	if j.Backend != "" {
		b, err := backend.Get(j.Backend)
		if err != nil {
			r.err = err
			return r
		}
		r.backend = b.Name()
	}
	if j.Seed != nil {
		r.seed = *j.Seed
	}
	switch {
	case j.Skeleton != "" && j.Workload != "":
		r.err = errdefs.Invalidf("batch job: skeleton and workload are mutually exclusive")
	case j.Skeleton != "":
		wl, err := sklang.Parse(j.Skeleton)
		switch {
		case errors.Is(err, sklang.ErrNotWorkload):
			err = errdefs.Invalidf("batch job: multi-phase program files are not supported")
		case err != nil:
			// Like POST /project: a source that does not parse is the
			// client's error.
			err = fmt.Errorf("%w: %w", errdefs.ErrInvalidInput, err)
		}
		r.wl, r.src, r.err = wl, j.Skeleton, err
		if j.Size != "" && r.err == nil {
			r.err = errdefs.Invalidf("batch job: size applies to named workloads, not inline skeletons")
		}
	case j.Workload != "":
		r.wl, r.err = bench.Named(j.Workload, j.Size)
	default:
		r.err = errdefs.Invalidf("batch job: one of skeleton or workload is required")
	}
	if r.err == nil && j.Iters != 0 {
		if j.Iters < 1 {
			r.err = errdefs.Invalidf("batch job: bad iteration count %d", j.Iters)
		} else {
			r.wl = r.wl.WithIterations(j.Iters)
		}
	}
	return r
}

// validateSelectors checks the graph-shaped half of every job. Like
// cycles and unknown ids these are request-level 400s, not per-job
// failures: a selector mistake means the whole graph's meaning is in
// question.
func validateSelectors(jobs []batchJob, g *dag.Graph) error {
	for i, j := range jobs {
		if j.FromParent == "" {
			continue
		}
		switch j.FromParent {
		case fromParentBestTarget, fromParentBestBackend:
		default:
			return errdefs.Invalidf("batch dag: job %s: unknown fromParent selector %q (want %s or %s)",
				g.Describe(i), j.FromParent, fromParentBestTarget, fromParentBestBackend)
		}
		if len(j.DependsOn) == 0 {
			return errdefs.Invalidf("batch dag: job %s sets fromParent %q without dependsOn",
				g.Describe(i), j.FromParent)
		}
		if j.FromParent == fromParentBestTarget && j.Target != "" {
			return errdefs.Invalidf("batch dag: job %s: target and fromParent %q are mutually exclusive",
				g.Describe(i), j.FromParent)
		}
		if j.FromParent == fromParentBestBackend && j.Backend != "" {
			return errdefs.Invalidf("batch dag: job %s: backend and fromParent %q are mutually exclusive",
				g.Describe(i), j.FromParent)
		}
	}
	return nil
}

// bestParent picks the parent whose report projected the highest
// finite full speedup; ties (and all-non-finite degenerate cases) go
// to the earliest declared parent. Callers only reach this once every
// parent has succeeded.
func bestParent(parents []int, outcomes []jobOutcome) int {
	best := parents[0]
	for _, p := range parents[1:] {
		v, b := outcomes[p].rep.SpeedupFull(), outcomes[best].rep.SpeedupFull()
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if math.IsInf(b, 0) || math.IsNaN(b) || v > b {
			best = p
		}
	}
	return best
}

// applyFromParent rewrites a dependent job's target or backend from
// the winning parent's *outcome* — not its static resolution, so
// selector chains (a child of a fromParent child) follow what
// actually ran.
func applyFromParent(r *resolvedJob, g *dag.Graph, i int, outcomes []jobOutcome) error {
	best := bestParent(g.Parents(i), outcomes)
	switch r.fromParent {
	case fromParentBestTarget:
		tgt, err := target.Lookup(outcomes[best].tgt)
		if err != nil {
			return fmt.Errorf("batch dag: job %s: resolving winning parent target: %w", g.Describe(i), err)
		}
		r.tgt = tgt
	case fromParentBestBackend:
		r.backend = outcomes[best].backend
	}
	return nil
}

// wantsNDJSON reports whether the client asked for the streamed
// delivery mode.
func wantsNDJSON(req *http.Request) bool {
	return strings.Contains(req.Header.Get("Accept"), ndjsonContentType)
}

// handleBatch serves POST /batch. The whole batch occupies one
// admission slot; its jobs are scheduled as a DAG on the sweep worker
// pool inside it. The response is 200 with per-job rows as long as
// the batch itself was well-formed — body shape, job cap, and graph
// shape (duplicate ids, unknown references, cycles, bad selectors)
// are the request-level 400s; job failures carry their own error and
// status on their row.
func (s *server) handleBatch(w http.ResponseWriter, req *http.Request) {
	ctx := obs.WithLogger(req.Context(), s.cfg.Logger)
	event := obs.EventFrom(ctx)

	// A failure rides on the request's wide event as err, which the
	// envelope then writes at Error level.
	fail := func(status int, err error) {
		mRequestErrors.Inc()
		event.Set("err", err.Error())
		writeError(w, status, err)
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBatchBytes))
	if err != nil {
		fail(http.StatusBadRequest, fmt.Errorf("reading batch body: %w", err))
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var jobs []batchJob
	if err := dec.Decode(&jobs); err != nil {
		fail(http.StatusBadRequest, fmt.Errorf("batch body is not a JSON job array: %w", err))
		return
	}
	if len(jobs) == 0 {
		fail(http.StatusBadRequest, errors.New("batch body is an empty job array"))
		return
	}
	if len(jobs) > maxBatchJobs {
		fail(http.StatusBadRequest, fmt.Errorf("batch of %d jobs exceeds the %d-job cap", len(jobs), maxBatchJobs))
		return
	}

	nodes := make([]dag.Node, len(jobs))
	for i, j := range jobs {
		nodes[i] = dag.Node{ID: j.ID, DependsOn: j.DependsOn}
	}
	g, err := dag.Build(nodes)
	if err != nil {
		fail(http.StatusBadRequest, err)
		return
	}
	if err := validateSelectors(jobs, g); err != nil {
		fail(http.StatusBadRequest, err)
		return
	}

	resolved := make([]resolvedJob, len(jobs))
	for i, j := range jobs {
		resolved[i] = s.resolve(j)
	}

	mBatchDagDepth.Set(float64(g.Depth()))

	stream := wantsNDJSON(req)
	flusher, canFlush := w.(http.Flusher)
	if stream {
		w.Header().Set("Content-Type", ndjsonContentType)
	}

	outcomes := make([]jobOutcome, len(jobs))
	var writeErr error // first streamed-write failure; jobs still run
	g.Run(ctx, s.cfg.BatchWorkers, dag.Hooks{
		Run: func(i int) error {
			r := resolved[i]
			if r.err == nil && r.fromParent != "" {
				if err := applyFromParent(&r, g, i, outcomes); err != nil {
					r.err = err
				}
			}
			outcomes[i] = s.runJob(ctx, r, obs.NewRunID(), stream)
			return outcomes[i].err
		},
		Done: func(i int, err error) {
			// A pool-level error (worker panic, cancelled before its
			// turn) reaches the row even though runJob never filled it.
			if err != nil && outcomes[i].err == nil {
				outcomes[i] = staticOutcome(resolved[i])
				outcomes[i].err = err
			}
		},
		Skip: func(i, parent int) {
			outcomes[i] = staticOutcome(resolved[i])
			outcomes[i].err = errdefs.Skippedf("dependency %s did not succeed", g.Describe(parent))
		},
		Emit: func(i int) {
			if !stream || writeErr != nil {
				return
			}
			row, err := rowJSON(i, outcomes[i])
			if err == nil {
				row = append(row, '\n')
				_, err = w.Write(row)
			}
			if err != nil {
				writeErr = err
				return
			}
			if canFlush {
				flusher.Flush()
			}
		},
	})

	succeeded, failed, skipped := 0, 0, 0
	for i := range outcomes {
		mBatchJobs.Inc()
		switch {
		case outcomes[i].err == nil:
			succeeded++
		case errdefs.IsSkipped(outcomes[i].err):
			skipped++
			failed++
			mBatchJobsSkipped.Inc()
		default:
			failed++
			mBatchJobFailures.Inc()
		}
	}
	event.Set("jobs", len(jobs))
	event.Set("succeeded", succeeded)
	event.Set("failed", failed)
	event.Set("skipped", skipped)
	event.Set("dag_depth", g.Depth())
	event.Set("streamed", stream)

	if stream {
		if writeErr == nil {
			_, writeErr = fmt.Fprintf(w, `{"succeeded":%d,"failed":%d,"skipped":%d}`+"\n",
				succeeded, failed, skipped)
		}
		if writeErr != nil {
			mRequestErrors.Inc()
			event.Set("err", writeErr.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := writeBatchResponse(w, outcomes, g.HasEdges()); err != nil {
		// The response never (fully) reached the client: marshal or
		// client-write failure. Nothing can be resent — the status line
		// is gone — but the failure must not vanish.
		mRequestErrors.Inc()
		event.Set("err", err.Error())
	}
}

// staticOutcome fills a row for a job that never ran — skipped, or
// killed at the pool level — from its static resolution, so the row
// still identifies what would have run.
func staticOutcome(r resolvedJob) jobOutcome {
	return jobOutcome{
		id:        r.id,
		dependsOn: r.dependsOn,
		wl:        r.wl.Name,
		tgt:       r.tgt.Name,
		backend:   r.backend,
		seed:      r.seed,
	}
}

// runJob executes one resolved job as run runID: its run span (with
// its own simulated clock, under the request's tree), flight record,
// and projection on a machine private to the run, calibrated through
// the shared pool. It is the one run lifecycle of POST /project and
// of every POST /batch job. A streamed job encodes its report
// compactly, ready for its one-line NDJSON row; otherwise the report
// is the single-call response bytes. A job that failed resolution
// does not run and its row carries no run ID.
func (s *server) runJob(ctx context.Context, r resolvedJob, runID string, stream bool) jobOutcome {
	out := jobOutcome{
		id:        r.id,
		dependsOn: r.dependsOn,
		tgt:       r.tgt.Name,
		backend:   r.backend,
		seed:      r.seed,
	}
	if r.err != nil {
		out.err = r.err
		return out
	}
	out.wl = r.wl.Name
	out.runID = runID

	start := time.Now()
	ctx = obs.WithRun(ctx, runID)
	ctx = obs.WithWorkload(ctx, r.wl.Name)
	ctx, run := trace.StartRun(ctx, "grophecyd")

	// Batch jobs share the request's tree: every row's walltrace
	// endpoint replays the whole request trace.
	entry := flight.Entry{
		ID:        runID,
		Workload:  r.wl.Name,
		DataSize:  r.wl.DataSize,
		Source:    r.src,
		Seed:      r.seed,
		JobID:     r.id,
		DependsOn: r.dependsOn,
		Start:     start,
	}
	var rep core.Report
	p, err := s.pool.Projector(ctx, r.tgt, r.backend, r.seed, r.tgt.Memory)
	if err == nil {
		rep, err = p.Evaluate(ctx, r.wl)
	}
	run.End()
	entry.Run = run
	entry.Duration = time.Since(start)
	if err != nil {
		entry.Err = err.Error()
		s.recorder.Add(entry)
		out.err = err
		return out
	}
	entry.Report = rep
	s.recorder.Add(entry)

	out.rep = &rep
	if stream {
		out.report, out.err = report.CompactJSON(rep)
	} else {
		out.report, out.err = report.JSON(rep)
	}
	return out
}

// batchRow is the metadata half of one response row; the report bytes
// are spliced in verbatim so each job's report stays byte-identical
// to the single-call response. ID and DependsOn are omitted when
// empty, which keeps edge-free rows byte-identical to the pre-DAG
// handler's.
type batchRow struct {
	Index     int      `json:"index"`
	ID        string   `json:"id,omitempty"`
	DependsOn []string `json:"dependsOn,omitempty"`
	RunID     string   `json:"runId,omitempty"`
	Workload  string   `json:"workload,omitempty"`
	Target    string   `json:"target"`
	Backend   string   `json:"backend,omitempty"`
	Seed      uint64   `json:"seed"`
	Status    int      `json:"status"`
	Error     string   `json:"error,omitempty"`
}

// rowJSON renders one response row. The encoding/json package
// re-compacts RawMessage values on Marshal, which would break the
// byte-for-byte report contract — so the row is marshalled without
// its report and the job's report bytes are spliced in verbatim
// before the closing brace. A buffered row thus carries the indented
// report.JSON bytes of the single-call response; a streamed (NDJSON)
// row carries the report.CompactJSON bytes its worker encoded, so it
// is one physical line equal to the compacted buffered row.
func rowJSON(i int, out jobOutcome) ([]byte, error) {
	row := batchRow{
		Index:     i,
		ID:        out.id,
		DependsOn: out.dependsOn,
		RunID:     out.runID,
		Workload:  out.wl,
		Target:    out.tgt,
		Backend:   out.backend,
		Seed:      out.seed,
		Status:    http.StatusOK,
	}
	if out.err != nil {
		row.Status = httpStatus(out.err)
		row.Error = out.err.Error()
	}
	meta, err := json.Marshal(row)
	if err != nil {
		return nil, err
	}
	if out.report == nil {
		return meta, nil
	}
	spliced := make([]byte, 0, len(meta)+len(out.report)+len(`,"report":}`))
	spliced = append(spliced, meta[:len(meta)-1]...) // strip the closing brace
	spliced = append(spliced, `,"report":`...)
	spliced = append(spliced, out.report...)
	spliced = append(spliced, '}')
	return spliced, nil
}

// writeBatchResponse hand-assembles the buffered response document.
// The skipped count is appended only for DAG batches, keeping the
// edge-free document byte-identical to the pre-DAG handler's.
func writeBatchResponse(w io.Writer, outcomes []jobOutcome, withSkips bool) error {
	var b bytes.Buffer
	b.WriteString(`{"jobs":[`)
	succeeded, skipped := 0, 0
	for i, out := range outcomes {
		if i > 0 {
			b.WriteByte(',')
		}
		row, err := rowJSON(i, out)
		if err != nil {
			return err
		}
		b.Write(row)
		switch {
		case out.err == nil:
			succeeded++
		case errdefs.IsSkipped(out.err):
			skipped++
		}
	}
	fmt.Fprintf(&b, `],"succeeded":%d,"failed":%d`, succeeded, len(outcomes)-succeeded)
	if withSkips {
		fmt.Fprintf(&b, `,"skipped":%d`, skipped)
	}
	b.WriteByte('}')
	b.WriteByte('\n')
	_, err := w.Write(b.Bytes())
	return err
}
