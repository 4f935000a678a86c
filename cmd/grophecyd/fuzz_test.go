package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readSkeleton reads one of the repository's skeleton files.
func readSkeleton(f *testing.F, name string) string {
	src, err := os.ReadFile(filepath.Join("..", "..", "skeletons", name))
	if err != nil {
		f.Fatal(err)
	}
	return string(src)
}

// FuzzProjectRequest drives POST /project with arbitrary skeleton
// bodies and raw query strings against one daemon. Every input must
// be answered with a 2xx or 4xx status, never a 5xx or a panic, and
// replaying it must return the same status and body bytes. Only the
// X-Run-Id header may differ. The first request for a calibration key
// misses the pool and the replay hits it, so this also holds cold and
// cached reports to byte identity. `make fuzz-short` runs it
// continuously; the seed corpus always runs under plain `go test`.
func FuzzProjectRequest(f *testing.F) {
	hotspot := readSkeleton(f, "hotspot.sk")
	f.Add(hotspot, "")
	f.Add(hotspot, "iters=8&seed=7")
	f.Add(hotspot, "backend=piecewise&seed=37")
	f.Add("", "")
	f.Add("this is not a skeleton", "")
	f.Add(readSkeleton(f, "pipeline.sk"), "")
	f.Add(hotspot, "seed=-1")
	f.Add(hotspot, "seed=18446744073709551616")
	f.Add(hotspot, "iters=0")
	f.Add(hotspot, "iters=x")
	f.Add(hotspot, "target=no-such-target")
	f.Add(hotspot, "backend=NOPE")
	f.Add(hotspot, "seed=%zz")
	// Found by fuzzing: a zero-trip parallel loop has no launchable
	// variant, which answered 500 on both kernel paths instead of 400.
	empty := strings.ReplaceAll(hotspot, "0..1024", "0..0")
	f.Add(empty, "")
	f.Add(empty, "backend=fitted")

	srv, _, _ := startDaemon(f, daemonConfig{})
	f.Fuzz(func(t *testing.T, body, rawQuery string) {
		if strings.ContainsFunc(rawQuery, func(r rune) bool { return r <= ' ' || r >= 0x7f || r == '#' }) {
			t.Skip("not a query an HTTP client can send")
		}
		do := func() (int, []byte) {
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/project", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.URL.RawQuery = rawQuery
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if class := resp.StatusCode / 100; class != 2 && class != 4 {
				t.Fatalf("status %d for query %q, body %q:\n%s", resp.StatusCode, rawQuery, body, data)
			}
			return resp.StatusCode, data
		}
		status, first := do()
		again, replay := do()
		if again != status || !bytes.Equal(first, replay) {
			t.Fatalf("replay differs for query %q, body %q:\n%d %s\n%d %s",
				rawQuery, body, status, first, again, replay)
		}
	})
}

// FuzzBatchRequest drives POST /batch, streamed as NDJSON, with
// arbitrary bodies and raw query strings against one daemon. Every
// input must be answered with a 2xx or 4xx status, and so must every
// row of a streamed batch; replaying it must return the same status
// and the same bytes, with only the rows' run IDs masked. The first
// post calibrates each key and the replay hits the pool, so this also
// holds cold and cached rows to byte identity.
func FuzzBatchRequest(f *testing.F) {
	job := func(fields string) string { return "[" + fields + "]" }
	inline, err := json.Marshal(readSkeleton(f, "hotspot.sk"))
	if err != nil {
		f.Fatal(err)
	}
	empty, err := json.Marshal(strings.ReplaceAll(readSkeleton(f, "hotspot.sk"), "0..1024", "0..0"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(job(`{"workload":"HotSpot","size":"64 x 64"}`), "")
	f.Add(job(`{"skeleton":`+string(inline)+`,"seed":7,"iters":3}`), "")
	f.Add(job(`{"workload":"SRAD","size":"1024 x 1024","backend":"fitted"},{"workload":"HotSpot","size":"64 x 64","target":"c2050-pcie3","backend":"piecewise"}`), "x=1")
	f.Add(job(`{"id":"a","workload":"HotSpot","size":"64 x 64","target":"c1060-pcie2"},`+
		`{"id":"b","workload":"HotSpot","size":"64 x 64"},`+
		`{"id":"c","dependsOn":["a","b"],"fromParent":"bestTarget","workload":"SRAD","size":"1024 x 1024"}`), "")
	f.Add(job(`{"id":"a","workload":"HotSpot","size":"no such size"},{"id":"b","dependsOn":["a"],"workload":"HotSpot","size":"64 x 64"}`), "")
	f.Add(job(`{"id":"a","dependsOn":["a"],"workload":"HotSpot","size":"64 x 64"}`), "")
	f.Add(job(`{"dependsOn":["nobody"],"workload":"HotSpot","size":"64 x 64"}`), "")
	f.Add(job(`{"fromParent":"bestBackend","workload":"HotSpot","size":"64 x 64"}`), "")
	f.Add(job(`{"workload":"HotSpot","size":"64 x 64","seed":-1}`), "")
	f.Add(job(`{"workload":"HotSpot","size":"64 x 64","target":"no-such-target","backend":"NOPE"}`), "")
	f.Add(job(`{"skeleton":"this is not a skeleton"}`), "")
	f.Add(job(`{"skeleton":`+string(empty)+`,"backend":"fitted"}`), "")
	f.Add(job(`{"unknown":1}`), "")
	f.Add("[]", "")
	f.Add("{}", "")
	f.Add("", "")

	srv, _, _ := startDaemon(f, daemonConfig{})
	f.Fuzz(func(t *testing.T, body, rawQuery string) {
		if strings.ContainsFunc(rawQuery, func(r rune) bool { return r <= ' ' || r >= 0x7f || r == '#' }) {
			t.Skip("not a query an HTTP client can send")
		}
		do := func() (int, string) {
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/batch", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.URL.RawQuery = rawQuery
			req.Header.Set("Accept", ndjsonContentType)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if class := resp.StatusCode / 100; class != 2 && class != 4 {
				t.Fatalf("status %d for query %q, body %q:\n%s", resp.StatusCode, rawQuery, body, data)
			}
			if resp.StatusCode == http.StatusOK {
				sc := bufio.NewScanner(bytes.NewReader(data))
				sc.Buffer(make([]byte, 0, 1<<20), 8<<20)
				for sc.Scan() {
					var row struct{ Status int }
					if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
						t.Fatalf("row is not JSON (%v): %.300s", err, sc.Bytes())
					}
					if class := row.Status / 100; class == 5 {
						t.Fatalf("row status %d for body %q:\n%.600s", row.Status, body, sc.Bytes())
					}
				}
			}
			return resp.StatusCode, runIDField.ReplaceAllString(string(data), "")
		}
		status, first := do()
		again, replay := do()
		if again != status || first != replay {
			t.Fatalf("replay differs for query %q, body %q:\n%d %s\n%d %s",
				rawQuery, body, status, first, again, replay)
		}
	})
}
