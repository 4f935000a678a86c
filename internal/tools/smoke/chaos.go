// The chaos/persistence scenario `make smoke-chaos` runs: the real
// grophecyd binary (race detector on) booted under an adversarial
// chaos plan — injected calibration latency and transient errors —
// with the snapshot store enabled. The daemon must become ready, shed
// correctly while saturated, and serve byte-identical reports across
// retries; after a SIGKILL a second daemon on the same snapshot
// directory must warm-start — zero new calibrations, the same report
// bytes — and after deliberate snapshot corruption a third daemon
// must quarantine the damage and still come up. This is the
// kill-and-restart proof the httptest suite cannot give: a genuinely
// separate process recovering from the first one's disk state.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// chaosPlan is fixed-seed so every run draws the same fault schedule:
// roughly half the calibration attempts are delayed 15ms, 45% fail
// transiently. With -cal-retries 8 a whole flight still fails only
// ~0.45^8 ≈ 0.2% of the time.
const chaosPlan = "cal-err=0.45,cal-latency=15ms:0.5,seed=4242"

func runChaos() error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "grophecyd-chaos")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "grophecyd")
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.Mkdir(snapDir, 0o755); err != nil {
		return err
	}

	build := exec.Command("go", "build", "-race", "-o", bin, "./cmd/grophecyd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building grophecyd -race: %v\n%s", err, out)
	}

	src, err := os.ReadFile(filepath.Join(root, "skeletons", "hotspot.sk"))
	if err != nil {
		return err
	}

	// Daemon A: adversarial chaos, tight admission, persistence on.
	a, baseA, err := startDaemon(root, bin,
		"-chaos", chaosPlan, "-cal-retries", "8",
		"-snapshot-dir", snapDir,
		"-max-inflight", "1", "-max-queue", "0", "-queue-wait", "300ms")
	if err != nil {
		return err
	}
	defer a.Process.Kill()
	if err := waitReady(baseA, 30*time.Second); err != nil {
		return fmt.Errorf("daemon did not become ready under chaos: %w", err)
	}
	fmt.Println("smoke-chaos: daemon ready under plan", chaosPlan)

	reference, err := projectRaw(baseA+"/project", string(src))
	if err != nil {
		return fmt.Errorf("projecting under chaos: %w", err)
	}
	repeat, err := projectRaw(baseA+"/project", string(src))
	if err != nil {
		return err
	}
	if !bytes.Equal(repeat, reference) {
		return errors.New("repeat projection under chaos is not byte-identical")
	}
	fmt.Println("smoke-chaos: projections under chaos are byte-identical")

	if err := checkSheddingChaos(baseA, string(src)); err != nil {
		return err
	}
	fmt.Println("smoke-chaos: saturated daemon shed with 429 + Retry-After and recovered")

	dump, err := metricsDump(baseA)
	if err != nil {
		return err
	}
	retries, err := metricValue(dump, "engine_cal_retries_total")
	if err != nil {
		return err
	}
	if retries < 1 {
		return fmt.Errorf("engine_cal_retries_total = %g under cal-err=0.45, want >= 1", retries)
	}
	fmt.Printf("smoke-chaos: %g transient calibration attempts retried\n", retries)

	// Hard kill: no drain, no final snapshot. The write-through must
	// already have every completed calibration on disk.
	if err := a.Process.Kill(); err != nil {
		return err
	}
	a.Wait()
	snaps, err := filepath.Glob(filepath.Join(snapDir, "*.snap"))
	if err != nil {
		return err
	}
	if len(snaps) == 0 {
		return errors.New("no snapshot files on disk after SIGKILL (write-through missing)")
	}
	fmt.Printf("smoke-chaos: SIGKILL left %d snapshot files\n", len(snaps))

	// Daemon B: clean config, same snapshot directory. It must
	// warm-start — ready without a single new calibration — and serve
	// the reference bytes.
	b, baseB, err := startDaemon(root, bin, "-snapshot-dir", snapDir)
	if err != nil {
		return err
	}
	defer b.Process.Kill()
	if err := waitReady(baseB, 15*time.Second); err != nil {
		return err
	}
	warm, err := projectRaw(baseB+"/project", string(src))
	if err != nil {
		return err
	}
	if !bytes.Equal(warm, reference) {
		return errors.New("warm-started report differs from the pre-kill reference")
	}
	dump, err = metricsDump(baseB)
	if err != nil {
		return err
	}
	misses, err := metricValue(dump, "engine_cache_misses_total")
	if err != nil {
		return err
	}
	if misses != 0 {
		return fmt.Errorf("warm-started daemon ran %g calibrations, want 0", misses)
	}
	info, err := buildInfoDoc(baseB)
	if err != nil {
		return err
	}
	snapSection, ok := info["snapshot"].(map[string]any)
	if !ok {
		return errors.New("/buildinfo lacks the snapshot section on a warm-started daemon")
	}
	if n, _ := snapSection["entries"].(float64); n < 1 {
		return fmt.Errorf("/buildinfo snapshot entries = %v, want >= 1", snapSection["entries"])
	}
	fmt.Printf("smoke-chaos: warm start served identical bytes with 0 calibrations (%v entries loaded)\n",
		snapSection["entries"])

	// Graceful exit for B.
	if err := b.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- b.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("warm daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		return errors.New("warm daemon did not exit within 15s of SIGTERM")
	}

	// Corrupt one snapshot file in place; daemon C must quarantine it
	// and still come up ready.
	victim := snaps[0]
	if err := os.WriteFile(victim, []byte("flipped bits, not a snapshot"), 0o644); err != nil {
		return err
	}
	c, baseC, err := startDaemon(root, bin, "-snapshot-dir", snapDir)
	if err != nil {
		return err
	}
	defer c.Process.Kill()
	if err := waitReady(baseC, 15*time.Second); err != nil {
		return fmt.Errorf("daemon with a corrupt snapshot never became ready: %w", err)
	}
	q, err := filepath.Glob(filepath.Join(snapDir, "*.quarantined"))
	if err != nil {
		return err
	}
	if len(q) < 1 {
		return errors.New("corrupt snapshot file was not quarantined on disk")
	}
	resp, err := http.Get(baseC + "/readyz")
	if err != nil {
		return err
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(rb), "quarantined") {
		return fmt.Errorf("/readyz does not report the quarantine: %q", rb)
	}
	fmt.Println("smoke-chaos: corrupt snapshot quarantined, daemon still ready")
	return nil
}

// checkSheddingChaos is the chaos-tolerant version of checkShedding:
// a long batch holds the single worker slot while probes look for the
// 429, but under cal-err a few batch jobs may legitimately exhaust
// their retries, so the batch only has to mostly succeed.
func checkSheddingChaos(base, src string) error {
	const batchJobs = 48
	jobs := make([]map[string]any, batchJobs)
	for i := range jobs {
		jobs[i] = map[string]any{"workload": "CFD", "size": "97K", "seed": 2000 + i}
	}
	body, err := json.Marshal(jobs)
	if err != nil {
		return err
	}

	batchDone := make(chan error, 1)
	go func() {
		for {
			resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				batchDone <- err
				return
			}
			respBody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				batchDone <- err
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				continue // a probe won the slot first; re-submit
			}
			if resp.StatusCode != http.StatusOK {
				batchDone <- fmt.Errorf("chaos batch: status %d\n%.300s", resp.StatusCode, respBody)
				return
			}
			var doc struct {
				Succeeded int `json:"succeeded"`
			}
			if err := json.Unmarshal(respBody, &doc); err != nil {
				batchDone <- err
				return
			}
			if doc.Succeeded < batchJobs*9/10 {
				batchDone <- fmt.Errorf("chaos batch: only %d of %d jobs succeeded", doc.Succeeded, batchJobs)
				return
			}
			batchDone <- nil
			return
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	shed := false
	for time.Now().Before(deadline) {
		resp, err := http.Post(base+"/project", "text/plain", strings.NewReader(src))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				return errors.New("chaos 429 missing the Retry-After header")
			}
			shed = true
			break
		}
	}
	if !shed {
		return errors.New("no request shed while the chaos batch held the worker slot")
	}

	if err := <-batchDone; err != nil {
		return err
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(base + "/readyz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("/readyz did not recover after the chaos batch drained")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// buildInfoDoc fetches and decodes GET /buildinfo.
func buildInfoDoc(base string) (map[string]any, error) {
	resp, err := http.Get(base + "/buildinfo")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/buildinfo is not JSON: %v", err)
	}
	return doc, nil
}
