package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"grophecy/internal/obs"
)

// streamDAG is a DAG of the same shape as perfbench's batch_dag
// workload: each paper application on several targets, then children
// that take the best of those targets and sweep the iteration count.
func streamDAG() []batchJob {
	apps := []struct{ id, workload, size string }{
		{"cfd", "CFD", "233K"},
		{"hotspot", "HotSpot", "1024 x 1024"},
		{"srad", "SRAD", "2048 x 2048"},
		{"stassuij", "Stassuij", ""},
	}
	targets := []string{"c1060-pcie1", "c1060-pcie2", "c1060-pcie3", "c2050-pcie1", "c2050-pcie2", "c2050-pcie3"}
	var jobs []batchJob
	for _, a := range apps {
		for _, tgt := range targets {
			jobs = append(jobs, batchJob{ID: a.id + "@" + tgt, Workload: a.workload, Size: a.size, Target: tgt})
		}
	}
	for _, a := range apps {
		parents := make([]string, len(targets))
		for i, tgt := range targets {
			parents[i] = a.id + "@" + tgt
		}
		for n := 1; n <= 512; n *= 2 {
			jobs = append(jobs, batchJob{
				ID: a.id + "/iters=" + strconv.Itoa(n), DependsOn: parents, FromParent: fromParentBestTarget,
				Workload: a.workload, Size: a.size, Iters: n,
			})
		}
	}
	return jobs
}

// BenchmarkBatchDAGStream posts the 64-job streamDAG to an in-process
// daemon with NDJSON delivery and reads the whole stream: the DAG
// scheduler, sweep fan-out, per-job projection and row encoding.
// Every calibration key is warm after the first post.
func BenchmarkBatchDAGStream(b *testing.B) {
	lg, err := obs.NewLogger(io.Discard, "json", 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, _, _ := startDaemon(b, daemonConfig{Logger: lg})
	body, err := json.Marshal(streamDAG())
	if err != nil {
		b.Fatal(err)
	}
	postDAG := func() {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/batch", strings.NewReader(string(body)))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Accept", ndjsonContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /batch: %d, %v", resp.StatusCode, err)
		}
		if !strings.HasSuffix(string(data), `{"succeeded":64,"failed":0,"skipped":0}`+"\n") {
			b.Fatalf("batch did not fully succeed:\n%.400s", data[max(0, len(data)-400):])
		}
	}
	postDAG() // warm every calibration key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postDAG()
	}
}
