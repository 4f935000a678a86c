package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// runIDField matches a row's runId member. Run IDs are minted per
// run, so two posts of the same batch differ there and nowhere else.
var runIDField = regexp.MustCompile(`,"runId":"[^"]*"`)

// rowKey reads a raw row's index, which identifies its job in both
// delivery modes.
func rowKey(t *testing.T, row []byte) int {
	t.Helper()
	var r struct {
		Index *int `json:"index"`
	}
	if err := json.Unmarshal(row, &r); err != nil || r.Index == nil {
		t.Fatalf("row has no index (%v):\n%.300s", err, row)
	}
	return *r.Index
}

// bufferedRows posts body for the buffered document and returns each
// raw row, compacted and without its runId, keyed by index.
func bufferedRows(t *testing.T, url, body string) map[int]string {
	t.Helper()
	resp, raw := post(t, url+"/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buffered POST /batch: %d\n%.400s", resp.StatusCode, raw)
	}
	var doc struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	rows := map[int]string{}
	for _, row := range doc.Jobs {
		var buf bytes.Buffer
		if err := json.Compact(&buf, row); err != nil {
			t.Fatal(err)
		}
		rows[rowKey(t, row)] = runIDField.ReplaceAllString(buf.String(), "")
	}
	return rows
}

// streamedRows posts body as NDJSON and returns each row line, as
// sent but without its runId, keyed by index. The summary line is
// dropped.
func streamedRows(t *testing.T, url, body string) map[int]string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", ndjsonContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed POST /batch: %d", resp.StatusCode)
	}
	rows := map[int]string{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"succeeded":`)) {
			continue
		}
		rows[rowKey(t, line)] = runIDField.ReplaceAllString(string(line), "")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestBatchNDJSONRowsEqualCompactedBufferedRows pins the row law: with
// the runId masked, every streamed NDJSON line equals json.Compact of
// the same job's buffered row — reports, errors and skips alike, for a
// DAG and for an edge-free array.
func TestBatchNDJSONRowsEqualCompactedBufferedRows(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)
	dagJobs := []batchJob{
		{ID: "hs@c1060", Workload: "HotSpot", Size: "64 x 64", Target: "c1060-pcie2"},
		{ID: "hs@c2050", Workload: "HotSpot", Size: "64 x 64", Target: "c2050-pcie3", Seed: uptr(7)},
		{ID: "cfd@c1060", Workload: "CFD", Size: "97K", Target: "c1060-pcie1", Seed: uptr(7)},
		{ID: "cfd@c2050", Workload: "CFD", Size: "97K", Target: "c2050-pcie2"},
		{ID: "broken", Workload: "Doom"},
		{ID: "hs/iters=4", DependsOn: []string{"hs@c1060", "hs@c2050"}, FromParent: fromParentBestTarget,
			Workload: "HotSpot", Size: "64 x 64", Iters: 4},
		{ID: "cfd/iters=8", DependsOn: []string{"cfd@c1060", "cfd@c2050"}, FromParent: fromParentBestTarget,
			Workload: "CFD", Size: "97K", Iters: 8, Seed: uptr(7)},
		{ID: "orphan", DependsOn: []string{"broken"}, Skeleton: src},
	}
	edgeFree := []batchJob{
		{Skeleton: src},
		{Workload: "SRAD", Size: "2048 x 2048", Target: "c2050-pcie3", Seed: uptr(7)},
		{Workload: "Stassuij", Backend: "fitted"},
		{Workload: "Doom"},
	}
	for _, tc := range []struct {
		name    string
		jobs    []batchJob
		reports int // rows that carry a report; the rest failed or skipped
	}{{"dag", dagJobs, 6}, {"edge-free", edgeFree, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.jobs)
			if err != nil {
				t.Fatal(err)
			}
			buffered := bufferedRows(t, srv.URL, string(body))
			streamed := streamedRows(t, srv.URL, string(body))
			if len(buffered) != len(tc.jobs) || len(streamed) != len(tc.jobs) {
				t.Fatalf("%d buffered and %d streamed rows, want %d each",
					len(buffered), len(streamed), len(tc.jobs))
			}
			reports := 0
			for i := range tc.jobs {
				if strings.Contains(buffered[i], `,"report":{`) {
					reports++
				}
				if streamed[i] != buffered[i] {
					t.Errorf("row %d: streamed line differs from the compacted buffered row\n--- streamed ---\n%.400s\n--- buffered ---\n%.400s",
						i, streamed[i], buffered[i])
				}
			}
			if reports != tc.reports {
				t.Errorf("%d rows carry a report, want %d", reports, tc.reports)
			}
		})
	}
}
