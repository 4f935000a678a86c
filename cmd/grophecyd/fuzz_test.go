package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzProjectRequest drives POST /project with arbitrary skeleton
// bodies and raw query strings against one daemon. Every input must
// be answered with a 2xx or 4xx status, never a 5xx or a panic, and
// replaying it must return the same status and body bytes. Only the
// X-Run-Id header may differ. The first request for a calibration key
// misses the pool and the replay hits it, so this also holds cold and
// cached reports to byte identity. `make fuzz-short` runs it
// continuously; the seed corpus always runs under plain `go test`.
func FuzzProjectRequest(f *testing.F) {
	read := func(name string) string {
		src, err := os.ReadFile(filepath.Join("..", "..", "skeletons", name))
		if err != nil {
			f.Fatal(err)
		}
		return string(src)
	}
	hotspot := read("hotspot.sk")
	f.Add(hotspot, "")
	f.Add(hotspot, "iters=8&seed=7")
	f.Add(hotspot, "backend=piecewise&seed=37")
	f.Add("", "")
	f.Add("this is not a skeleton", "")
	f.Add(read("pipeline.sk"), "")
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
