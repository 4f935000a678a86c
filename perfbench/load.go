package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"
)

// client drives the daemon over one keep-alive HTTP connection.
type client struct {
	hc   *http.Client
	base string
	buf  []byte // response body of the latest call, reused
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// response is one completed call. body aliases the client's buffer and
// is valid until the next call.
type response struct {
	status   int
	body     []byte
	latency  time.Duration // send to last body byte
	firstRow time.Duration // send to the first body byte (/project) or first NDJSON row
}

func (c *client) do(r request) (response, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return response{}, err
	}
	if r.stream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	var first time.Duration
	c.buf = c.buf[:0]
	for {
		if len(c.buf) == cap(c.buf) {
			c.buf = append(c.buf, 0)[:len(c.buf)]
		}
		n, err := resp.Body.Read(c.buf[len(c.buf):cap(c.buf)])
		if n > 0 && first == 0 && (!r.stream || bytes.IndexByte(c.buf[len(c.buf):len(c.buf)+n], '\n') >= 0) {
			first = time.Since(start)
		}
		c.buf = c.buf[:len(c.buf)+n]
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return response{}, fmt.Errorf("reading %s response: %w", r.path, err)
		}
	}
	return response{status: resp.StatusCode, body: c.buf, latency: time.Since(start), firstRow: first}, nil
}

// dist summarizes a sample of durations in milliseconds.
type dist struct {
	n              int
	p50, p99, mean float64
}

// summarize returns the sample's median, 99th percentile (nearest
// rank) and mean, with the sample count they rest on.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return dist{n: len(s), p50: nearestRank(s, 0.50), p99: nearestRank(s, 0.99), mean: sum / float64(len(s))}
}

func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of a sample; 0 for an empty one.
func median(xs []float64) float64 { return summarize(xs).p50 }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads printed here match the ones an
// acceptance script computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// rowMeta is the metadata half of one NDJSON batch row.
type rowMeta struct {
	Index     int             `json:"index"`
	ID        string          `json:"id"`
	DependsOn []string        `json:"dependsOn"`
	Workload  string          `json:"workload"`
	Target    string          `json:"target"`
	Backend   string          `json:"backend"`
	Seed      uint64          `json:"seed"`
	Status    int             `json:"status"`
	Error     string          `json:"error"`
	Report    json.RawMessage `json:"report"`
}

// batchSummary is the NDJSON stream's last line.
type batchSummary struct {
	Succeeded, Failed, Skipped int
}

// checkBatch validates one streamed batch response: one row per job,
// every row 200 without an error, each row after all of its parents,
// and a summary line that agrees. With withReports it also decodes
// each row's report.
func checkBatch(body []byte, jobs int, withReports bool) ([]rowMeta, error) {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != jobs+1 {
		return nil, fmt.Errorf("batch: %d lines, want %d rows and a summary", len(lines), jobs)
	}
	rows := make([]rowMeta, jobs)
	seen := make(map[string]bool, jobs)
	for i, line := range lines[:jobs] {
		meta := line
		if !withReports {
			// Decoding only the metadata keeps the per-response check cheap.
			if k := bytes.Index(line, []byte(`,"report":`)); k >= 0 {
				meta = append(line[:k:k], '}')
			}
		}
		if err := json.Unmarshal(meta, &rows[i]); err != nil {
			return nil, fmt.Errorf("batch row %d: %w", i, err)
		}
		r := rows[i]
		if r.Status != http.StatusOK || r.Error != "" {
			return nil, fmt.Errorf("batch row %s: status %d: %s", r.ID, r.Status, r.Error)
		}
		for _, p := range r.DependsOn {
			if !seen[p] {
				return nil, fmt.Errorf("batch row %s arrived before its parent %s", r.ID, p)
			}
		}
		seen[r.ID] = true
	}
	var sum batchSummary
	if err := json.Unmarshal(lines[jobs], &sum); err != nil {
		return nil, fmt.Errorf("batch summary: %w", err)
	}
	if sum.Succeeded != jobs || sum.Failed != 0 || sum.Skipped != 0 {
		return nil, fmt.Errorf("batch summary %+v, want %d succeeded", sum, jobs)
	}
	return rows, nil
}
