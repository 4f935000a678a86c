package main

import (
	"math"
	"strings"
	"testing"
)

// The shapes grophecyd's /metrics page uses: HELP/TYPE comments,
// plain counters, labelled histogram buckets with an OpenMetrics
// exemplar, and _sum/_count lines.
const promBefore = `# HELP engine_cache_hits_total projector requests served from the calibration cache
# TYPE engine_cache_hits_total counter
engine_cache_hits_total 10
engine_cache_misses_total 2
grophecyd_request_seconds_bucket{le="0.001"} 4 # {trace_id="b645b5a20fd6eb7b5e54b640c3fc817a"} 0.000845584
grophecyd_request_seconds_bucket{le="+Inf"} 5
grophecyd_request_seconds_sum 0.002
grophecyd_request_seconds_count 5
slo_info{objective="p99 latency under 5s"} 1
`

const promAfter = `engine_cache_hits_total 40
engine_cache_misses_total 2
grophecyd_request_seconds_sum 0.032
grophecyd_request_seconds_count 35
brs_cache_hits_total 3
brs_cache_misses_total 1
`

func TestParsePromReadsCountersHistogramsAndLabels(t *testing.T) {
	s, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"engine_cache_hits_total":                      10,
		`grophecyd_request_seconds_bucket{le="0.001"}`: 4,
		`grophecyd_request_seconds_bucket{le="+Inf"}`:  5,
		"grophecyd_request_seconds_count":              5,
		`slo_info{objective="p99 latency under 5s"}`:   1,
	}
	for k, v := range want {
		if s[k] != v {
			t.Errorf("%s = %v, want %v", k, s[k], v)
		}
	}
	if _, err := parseProm(strings.NewReader("broken_metric\n")); err == nil {
		t.Error("a sample without a value parsed")
	}
}

func TestDeltas(t *testing.T) {
	b, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if mean, n := histMean(b, a, "grophecyd_request_seconds"); n != 30 || math.Abs(mean-0.001) > 1e-12 {
		t.Errorf("histMean = %v over %d, want 0.001 over 30", mean, n)
	}
	if r, hits, lookups := cacheRatio(b, a, "engine_cache"); r != 1 || hits != 30 || lookups != 30 {
		t.Errorf("engine ratio = %v (%d of %d), want 1 (30 of 30)", r, hits, lookups)
	}
	// brs is absent before: an unregistered counter reads as zero.
	if r, hits, lookups := cacheRatio(b, a, "brs_cache"); r != 0.75 || hits != 3 || lookups != 4 {
		t.Errorf("brs ratio = %v (%d of %d), want 0.75 (3 of 4)", r, hits, lookups)
	}
	if r, _, lookups := cacheRatio(b, a, "transform_cache"); r != 0 || lookups != 0 {
		t.Errorf("absent cache: ratio %v over %d lookups, want 0 over 0", r, lookups)
	}
}
