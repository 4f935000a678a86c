package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/core"
)

// paperPair is one named (workload, size) a batch job can ask for,
// with a constructor that builds it afresh.
type paperPair struct {
	name, size string
	fresh      func() (core.Workload, error)
}

func paperPairs() []paperPair {
	var out []paperPair
	add := func(name string, sizes []string, build func(string) (core.Workload, error)) {
		for _, s := range sizes {
			out = append(out, paperPair{name, s, func() (core.Workload, error) { return build(s) }})
		}
	}
	add("CFD", bench.CFDSizes(), bench.CFD)
	add("HotSpot", bench.HotSpotSizes(), bench.HotSpot)
	add("SRAD", bench.SRADSizes(), bench.SRAD)
	add("Stassuij", []string{""}, func(string) (core.Workload, error) { return bench.Stassuij(), nil })
	return out
}

// TestSharedWorkloadsStayPristine is the law for the process-wide
// paper workloads: concurrent batches that sweep iterations over every
// named (workload, size) leave each shared workload deep-equal to a
// freshly built one (under -race, no job writes to it either), every
// batch projects the same reports, and an unknown name or size still
// fails its own row with a 400 and the same message.
func TestSharedWorkloadsStayPristine(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	pairs := paperPairs()
	var jobs []batchJob
	for _, p := range pairs {
		for _, iters := range []int{1, 3, 40} {
			jobs = append(jobs, batchJob{Workload: p.name, Size: p.size, Iters: iters})
		}
	}
	good := len(jobs)
	wantErr := []string{
		`invalid input: bench: unknown workload "Doom" (want CFD, HotSpot, SRAD, or Stassuij)`,
		`invalid input: bench: unknown CFD size "1M" (want one of [97K 193K 233K])`,
		`invalid input: bench: unknown HotSpot size "" (want one of [64 x 64 512 x 512 1024 x 1024])`,
		`invalid input: bench: Stassuij has a single data set; drop size "64 x 64"`,
	}
	jobs = append(jobs,
		batchJob{Workload: "Doom"},
		batchJob{Workload: "CFD", Size: "1M"},
		batchJob{Workload: "HotSpot"},
		batchJob{Workload: "Stassuij", Size: "64 x 64"},
	)
	body, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}

	const batches = 4
	docs := make([]batchResponse, batches)
	var wg sync.WaitGroup
	for b := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batch %d: status %d", b, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&docs[b]); err != nil {
				t.Errorf("batch %d: %v", b, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for b, doc := range docs {
		if len(doc.Jobs) != len(jobs) || doc.Succeeded != good {
			t.Fatalf("batch %d: %d rows, %d succeeded; want %d rows, %d succeeded", b, len(doc.Jobs), doc.Succeeded, len(jobs), good)
		}
		for i, row := range doc.Jobs {
			if i < good {
				if row.Status != http.StatusOK {
					t.Errorf("batch %d row %d: status %d: %s", b, i, row.Status, row.Error)
				} else if !bytes.Equal(row.Report, docs[0].Jobs[i].Report) {
					t.Errorf("batch %d row %d: report differs from batch 0's", b, i)
				}
				continue
			}
			if want := wantErr[i-good]; row.Status != http.StatusBadRequest || row.Error != want {
				t.Errorf("batch %d row %d: status %d error %q, want 400 %q", b, i, row.Status, row.Error, want)
			}
		}
	}
	for i, p := range pairs {
		var rep struct{ Iterations int }
		if err := json.Unmarshal(docs[0].Jobs[3*i+2].Report, &rep); err != nil || rep.Iterations != 40 {
			t.Errorf("%s %s at 40 iterations: report reads %d (%v)", p.name, p.size, rep.Iterations, err)
		}
		shared, err := bench.Named(p.name, p.size)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := p.fresh()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared, fresh) {
			t.Errorf("shared %s %s differs from a fresh build after the batches", p.name, p.size)
		}
	}
	a, _ := bench.Named("CFD", "97K")
	b, _ := bench.Named("CFD", "97K")
	if a.Seq != b.Seq {
		t.Error("bench.Named built the workload again instead of sharing it")
	}
}
