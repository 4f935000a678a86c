package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one reading of the daemon's /metrics page: every sample by
// its series name, labels included verbatim (e.g.
// `grophecyd_request_seconds_bucket{le="0.001"}`).
type scrape map[string]float64

// parseProm reads the Prometheus text exposition format. Comment lines
// are skipped, and an OpenMetrics exemplar (" # {...} v") after a
// sample's value is ignored.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the first space after the closing brace of
		// the label set, if there is one; label values may hold spaces.
		end := 0
		if i := strings.IndexByte(line, '{'); i >= 0 && i < strings.IndexByte(line+" ", ' ') {
			j := strings.IndexByte(line[i:], '}')
			if j < 0 {
				return nil, fmt.Errorf("metrics: unterminated label set: %q", line)
			}
			end = i + j + 1
		} else {
			end = strings.IndexByte(line, ' ')
			if end < 0 {
				return nil, fmt.Errorf("metrics: sample without value: %q", line)
			}
		}
		fields := strings.Fields(line[end:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: sample without value: %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:end]] = v
	}
	return out, sc.Err()
}

// delta returns after[name] − before[name]; a series missing from a
// scrape reads as zero, as an unregistered counter would.
func delta(before, after scrape, name string) float64 {
	return after[name] - before[name]
}

// histMean returns the mean observation of histogram name between two
// scrapes, with the number of observations it averages.
func histMean(before, after scrape, name string) (mean float64, n int64) {
	cnt := delta(before, after, name+"_count")
	if cnt <= 0 {
		return 0, 0
	}
	return delta(before, after, name+"_sum") / cnt, int64(cnt)
}

// cacheRatio is a hit ratio from a hits/misses counter pair, with its
// base (hits + misses).
func cacheRatio(before, after scrape, prefix string) (ratio float64, hits, lookups int64) {
	h := delta(before, after, prefix+"_hits_total")
	m := delta(before, after, prefix+"_misses_total")
	if h+m <= 0 {
		return 0, int64(h), 0
	}
	return h / (h + m), int64(h), int64(h + m)
}
