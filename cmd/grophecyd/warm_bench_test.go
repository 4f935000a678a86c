package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/obs"
	"grophecy/internal/sklang"
)

// paperSkeletons renders the ten paper workloads (bench.All) as
// skeleton source: perfbench's project_warm request bodies.
func paperSkeletons(tb testing.TB) []string {
	tb.Helper()
	ws, err := bench.All()
	if err != nil {
		tb.Fatal(err)
	}
	srcs := make([]string, len(ws))
	for i, w := range ws {
		if srcs[i], err = sklang.Format(w); err != nil {
			tb.Fatal(err)
		}
	}
	return srcs
}

// projectBody POSTs one skeleton to url, a /project URL with any
// query, and returns the response body, or an error for anything but
// 200.
func projectBody(url, src string) ([]byte, error) {
	resp, err := http.Post(url, "text/plain", strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST /project: %d\n%s", resp.StatusCode, body)
	}
	return body, err
}

// BenchmarkProjectWarm is perfbench's project_warm in process: the
// ten paper workloads in turn through POST /project at daemon
// defaults, every cache warm, with the default text logger writing to
// a file. One op is one request, HTTP client and server included.
func BenchmarkProjectWarm(b *testing.B) {
	f, err := os.Create(filepath.Join(b.TempDir(), "grophecyd.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	lg, err := obs.NewLogger(f, "text", 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, _, _ := startDaemon(b, daemonConfig{Logger: lg})
	endpoint := srv.URL + "/project"
	srcs := paperSkeletons(b)
	for _, src := range srcs { // warm every memo
		if _, err := projectBody(endpoint, src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := projectBody(endpoint, srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
	}
}
