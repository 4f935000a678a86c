// Command perfbench is the repository's end-to-end benchmark. It
// starts a fresh grophecyd for every run, drives it over one HTTP
// connection in a closed loop with one of three workloads, checks
// every response, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload project_warm --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload batch_dag --seed 1 --seconds 30 --repeat 10
//
// RATIONALE.md explains the workloads, the metrics and the layer each
// one should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"grophecy/internal/core"
)

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: project_warm, project_cold or batch_dag")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed generates the same requests")
		seconds = flag.Float64("seconds", 30, "length of the timed window")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		repeat  = flag.Int("repeat", 0, "run the end-to-end benchmark this many times (seeds seed, seed+1, …) and print each metric's median, quartiles and spread against its bound")
		daemon  = flag.String("daemon", "", "path of the grophecyd binary to benchmark")
		workdir = flag.String("workdir", "", "directory for the daemon's log (created, then removed)")
	)
	flag.Parse()
	if err := run(*wlName, *seed, *seconds, *traced, *repeat, *daemon, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupRounds is how often an end-to-end run sets the daemon up;
// setup_s is the median. One set-up takes tens of milliseconds, too
// short for a single reading to repeat.
const setupRounds = 7

func run(wlName string, seed uint64, seconds float64, traced, repeat int, daemonBin, workdir string) error {
	if daemonBin == "" || workdir == "" {
		return errors.New("--daemon and --workdir are required (run.sh sets them)")
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	// The load generator allocates per request; a lazier collector keeps
	// its CPU out of the daemon's way on a small host.
	debug.SetGCPercent(400)

	cfg := runConfig{workload: wlName, seed: seed, seconds: seconds, daemonBin: daemonBin, workdir: workdir}
	fmt.Println(envLine())
	var (
		res result
		err error
	)
	switch {
	case repeat > 0:
		res, err = repeatRuns(cfg, repeat)
	case traced == 1:
		res, err = tracedRun(cfg)
	case traced == 0:
		res, err = endToEnd(cfg)
	default:
		return fmt.Errorf("--trace must be 0 or 1, not %d", traced)
	}
	if err != nil {
		return err
	}
	for _, m := range res.metrics {
		fmt.Printf("  %-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, line := range res.extra {
		fmt.Println(line)
	}
	return printResult(res)
}

// runConfig is one run's settings.
type runConfig struct {
	workload  string
	seed      uint64
	seconds   float64
	daemonBin string
	workdir   string
}

// metric is one reported number; note carries its sample count or
// base, for the human-readable lines.
type metric struct {
	name, unit string
	value      float64
	note       string
	// report marks the metrics of the final JSON line; the others are
	// printed for people only.
	report bool
}

// result is one run's outcome.
type result struct {
	metrics   []metric
	extra     []string // further human-readable lines (the ledger)
	attempted int
	failed    int
	problems  []string
}

func (r *result) add(name, unit string, value float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, note: note, report: true})
}

func (r *result) info(name, unit string, value float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, note: note})
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func printResult(res result) error {
	for _, p := range res.problems {
		fmt.Println("  FAILED:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range res.metrics {
		if m.report {
			ms[m.name] = value{m.value, m.unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// envLine records where a result was measured.
func envLine() string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// session is a started, warmed daemon plus the client driving it.
type session struct {
	d      *daemon
	c      *client
	w      workload
	warmup []response // copies of the warm-up responses
	setup  []float64  // seconds per set-up
}

func (s *session) close() {
	if s.d != nil {
		s.d.stop()
	}
}

// setUp starts the daemon n times, each time through /readyz and one
// warm-up pass over the workload's distinct inputs, keeping the last.
func setUp(cfg runConfig, n int) (*session, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	s := &session{w: w}
	hc := newHTTPClient()
	jobs := len(batchJobs())
	for k := 0; k < n; k++ {
		s.close()
		s.warmup = s.warmup[:0]
		start := time.Now()
		s.d, err = startDaemon(cfg.daemonBin, cfg.workdir)
		if err != nil {
			return nil, err
		}
		if err := s.d.waitReady(hc); err != nil {
			s.close()
			return nil, err
		}
		s.c = &client{hc: hc, base: s.d.base}
		for _, r := range w.warmup {
			resp, err := s.c.do(r)
			if err == nil {
				err = checkResponse(r, resp, jobs)
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			resp.body = append([]byte(nil), resp.body...)
			s.warmup = append(s.warmup, resp)
		}
		s.setup = append(s.setup, time.Since(start).Seconds())
	}
	return s, nil
}

// window is what the timed closed loop observed.
type window struct {
	latMS, firstMS []float64
	elapsed        time.Duration
	before, after  scrape
	samples        []sample // responses kept for the byte-for-byte check
}

type sample struct {
	req  request
	body []byte
}

// sampling picks which responses of the timed window are kept for the
// reference check: index 0, then a seeded pseudo-random subset.
func sampling(name string) (every uint64, limit int) {
	if name == wlBatch {
		return 8, 4
	}
	return 64, 32
}

// drive runs the closed loop for the configured time, checking every
// response as it arrives.
func drive(cfg runConfig, s *session, res *result) (window, error) {
	var win window
	var err error
	if win.before, err = s.scrape(); err != nil {
		return win, err
	}
	// The load generator is one goroutine waiting on one connection. A
	// single P keeps its runtime's idle spinning off the core the daemon
	// is using; the in-process reference and replay run afterwards with
	// the default, as the daemon does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	every, limit := sampling(cfg.workload)
	jobs := len(batchJobs())
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		r, err := s.w.next(i)
		if err != nil {
			return win, err
		}
		res.attempted++
		resp, err := s.c.do(r)
		if err != nil {
			res.fail("request %d: %v", i, err)
			continue
		}
		win.latMS = append(win.latMS, float64(resp.latency)/1e6)
		win.firstMS = append(win.firstMS, float64(resp.firstRow)/1e6)
		if err := checkResponse(r, resp, jobs); err != nil {
			res.fail("request %d: %v", i, err)
			continue
		}
		if len(win.samples) < limit && (i == 0 || newRNG(cfg.seed, uint64(i)).next()%every == 0) {
			win.samples = append(win.samples, sample{r, append([]byte(nil), resp.body...)})
		}
	}
	win.elapsed = time.Since(start)
	win.after, err = s.scrape()
	return win, err
}

// checkResponse is the cheap check every response gets: a 200 with a
// JSON body, and for a batch the full row structure.
func checkResponse(r request, resp response, jobs int) error {
	if resp.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", r.path, resp.status, resp.body)
	}
	if r.stream {
		_, err := checkBatch(resp.body, jobs, false)
		return err
	}
	if len(resp.body) == 0 || resp.body[0] != '{' {
		return fmt.Errorf("%s: body is not a JSON report: %.100q", r.path, resp.body)
	}
	return nil
}

func (s *session) scrape() (scrape, error) {
	resp, err := s.c.hc.Get(s.d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// endToEnd is one untraced run: set-up, the timed window, then the
// correctness check against the in-process reference.
func endToEnd(cfg runConfig) (result, error) {
	var res result
	s, err := setUp(cfg, setupRounds)
	if err != nil {
		return res, err
	}
	defer s.close()
	win, err := drive(cfg, s, &res)
	if err != nil {
		return res, err
	}
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return res, err
	}
	s.close()
	s.d = nil

	errPct, inputs, err := speedupErr(s)
	if err != nil {
		return res, err
	}
	checkSamples(win.samples, &res)

	lat, first := summarize(win.latMS), summarize(win.firstMS)
	res.add("setup_s", "s", median(s.setup), fmt.Sprintf("median of %d set-ups (exec → /readyz → warm-up over %d inputs)", len(s.setup), len(s.w.warmup)))
	res.add("throughput_rps", "req/s", float64(lat.n)/win.elapsed.Seconds(), fmt.Sprintf("n=%d requests in %.1fs, 1 connection, closed loop", lat.n, win.elapsed.Seconds()))
	res.add("latency_p50_ms", "ms", lat.p50, fmt.Sprintf("n=%d", lat.n))
	res.add("latency_p99_ms", "ms", lat.p99, fmt.Sprintf("n=%d (%d beyond)", lat.n, lat.n-int(0.99*float64(lat.n))))
	res.add("first_row_p50_ms", "ms", first.p50, fmt.Sprintf("n=%d (batch: first NDJSON row; /project: first body byte)", first.n))
	res.add("daemon_peak_rss_mb", "MB", rss, "VmHWM at the end of the run")
	res.info("speedup_err_pct", "%", errPct, fmt.Sprintf("mean errFull over %d distinct inputs (deterministic)", inputs))
	res.info("errors_pct", "%", 100*float64(res.failed)/float64(res.attempted), fmt.Sprintf("%d failed of %d attempted", res.failed, res.attempted))
	return res, nil
}

// speedupErr is the mean of derived.errFull × 100 over the warm-up
// responses, which are each distinct input once, with their count.
func speedupErr(s *session) (float64, int, error) {
	var reports [][]byte
	for i, resp := range s.warmup {
		if !s.w.warmup[i].stream {
			reports = append(reports, resp.body)
			continue
		}
		rows, err := checkBatch(resp.body, len(batchJobs()), true)
		if err != nil {
			return 0, 0, err
		}
		for _, row := range rows {
			reports = append(reports, row.Report)
		}
	}
	var sum float64
	for _, rep := range reports {
		v, err := errFullPct(rep)
		if err != nil {
			return 0, 0, err
		}
		sum += v
	}
	return sum / float64(len(reports)), len(reports), nil
}

// checkSamples compares the kept responses byte for byte with the
// in-process reference; every mismatch is a failed operation.
func checkSamples(samples []sample, res *result) {
	ctx := context.Background()
	ref := newReference(core.DefaultEngine())
	jobs := batchJobs()
	for _, sm := range samples {
		res.attempted++
		if !sm.req.stream {
			if err := ref.checkProject(ctx, sm.req, sm.body); err != nil {
				res.fail("reference check: %v", err)
			}
			continue
		}
		rows, err := checkBatch(sm.body, len(jobs), true)
		if err == nil {
			err = ref.checkBatchRows(ctx, jobs, rows)
		}
		if err != nil {
			res.fail("reference check: %v", err)
		}
	}
}
