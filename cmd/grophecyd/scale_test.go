package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// manyKernels is a skeleton of n one-statement kernels, all in the
// sequence.
func manyKernels(n int) string {
	var b strings.Builder
	b.WriteString("workload \"W\" size \"S\"\narray a[1] float32\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "kernel k%d { parfor i in 0..1 { stmt flops=1 { load a[i] } } }\n", i)
	}
	b.WriteString("sequence {")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " k%d", i)
	}
	b.WriteString(" }\ncpu elements=1 flops=1 bytes=4\n")
	return b.String()
}

// manyArrays is a skeleton of one kernel loading n distinct arrays.
func manyArrays(n int) string {
	var b strings.Builder
	b.WriteString("workload \"W\" size \"S\"\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "array a%d[1] float32\n", i)
	}
	b.WriteString("kernel k { parfor i in 0..1 { stmt flops=1 {")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " load a%d[i]", i)
	}
	b.WriteString(" } } }\nsequence { k }\ncpu elements=1 flops=1 bytes=4\n")
	return b.String()
}

// deepNest is a skeleton of one kernel nesting n sequential loops
// under its parallel one, whose innermost access indexes by every
// eighth loop variable (by all of them, sorting the expression's
// variables would outweigh looking them up).
func deepNest(n int) string {
	var b strings.Builder
	b.WriteString("workload \"W\" size \"S\"\narray a[1] float32\nkernel k { parfor i in 0..1 {")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " for v%d in 0..1 {", i)
	}
	b.WriteString(" stmt flops=1 { load a[i")
	for i := 0; i < n; i += 8 {
		fmt.Fprintf(&b, "+v%d", i)
	}
	b.WriteString("] }")
	b.WriteString(strings.Repeat(" }", n+2))
	b.WriteString("\nsequence { k }\ncpu elements=1 flops=1 bytes=4\n")
	return b.String()
}

// accessPerLoop is a skeleton of one kernel nesting n sequential loops
// under its parallel one, whose innermost statement loads the array
// once per loop variable: data usage takes each access's section
// against the whole nest.
func accessPerLoop(n int) string {
	var b strings.Builder
	b.WriteString("workload \"W\" size \"S\"\narray a[1] float32\nkernel k { parfor i in 0..1 {")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " for v%d in 0..1 {", i)
	}
	b.WriteString(" stmt flops=1 {")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " load a[i+v%d]", i)
	}
	b.WriteString(" }")
	b.WriteString(strings.Repeat(" }", n+2))
	b.WriteString("\nsequence { k }\ncpu elements=1 flops=1 bytes=4\n")
	return b.String()
}

// accessesOfOneArray is a skeleton of one kernel whose statement loads
// one array at n distinct offsets: data usage unions every access's
// section into that array's one upload section.
func accessesOfOneArray(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload \"W\" size \"S\"\narray a[%d] float32\nkernel k { parfor i in 0..1 { stmt flops=1 {", n+1)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " load a[i+%d]", i)
	}
	b.WriteString(" } } }\nsequence { k }\ncpu elements=1 flops=1 bytes=4\n")
	return b.String()
}

// TestLargeSkeletonsScaleLinearly posts generated skeletons that are
// large in one dimension — kernels in the sequence, distinct arrays
// in one kernel, loops in one nest, accesses over a deep nest,
// accesses of one array in one kernel — at
// size n and at 4n, the larger
// close to maxSkeletonBytes. Every pass of a request (lexing,
// validation, memo keys, data usage, the report) must stay linear in
// that dimension, up to a sort, so the larger request may take at
// most 8 times as long as the smaller: twice the linear ratio, half a
// quadratic one. The budget is a ratio, not a fixed time, so that it
// holds on a slow host and under -race alike. Each size is timed as
// the fastest of three requests, each started after a collection so
// that none pays for an earlier one's garbage.
func TestLargeSkeletonsScaleLinearly(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	post := func(src string) (time.Duration, int) {
		best, status := time.Duration(-1), 0
		for range 3 {
			runtime.GC()
			start := time.Now()
			resp, err := http.Post(srv.URL+"/project", "text/plain", strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best < 0 || d < best {
				best = d
			}
			status = resp.StatusCode
			if status/100 == 5 {
				t.Fatalf("status %d: %s", status, body)
			}
		}
		return best, status
	}
	for _, c := range []struct {
		name string
		gen  func(int) string
		n    int
	}{
		{"kernels", manyKernels, 3500},
		{"arrays", manyArrays, 6750},
		{"nest", deepNest, 8000},
		{"access per loop", accessPerLoop, 3000},
		{"accesses of one array", accessesOfOneArray, 15000},
	} {
		t.Run(c.name, func(t *testing.T) {
			large := c.gen(4 * c.n)
			if len(large) > maxSkeletonBytes {
				t.Fatalf("generated %d bytes, over the %d-byte limit", len(large), maxSkeletonBytes)
			}
			small, smallStatus := post(c.gen(c.n))
			big, bigStatus := post(large)
			if smallStatus != bigStatus {
				t.Fatalf("status %d at n=%d but %d at 4n", smallStatus, c.n, bigStatus)
			}
			t.Logf("n=%d: %v; 4n (%d bytes): %v (%.1fx)", c.n, small, len(large), big, float64(big)/float64(small))
			if big > 8*small {
				t.Errorf("4n took %v, more than 8 times n's %v: a pass is superlinear in the %s", big, small, c.name)
			}
		})
	}
}
