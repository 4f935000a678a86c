// Package slo tracks service-level objectives for the daemon:
// availability (non-5xx fraction) and latency (fraction of requests
// under a threshold) over sliding wall-clock windows, reported as
// burn rates.
//
// A burn rate is the ratio of the observed bad fraction to the
// objective's error budget: burn 1.0 means the service is spending
// its budget exactly as fast as the objective allows, burn 10 means
// ten times too fast. Multi-window burn rates are the standard paging
// signal (a short window catches fast burns, a long window slow
// ones); the tracker computes both from one ring of per-second
// buckets so Record stays O(1) and Snapshot O(ring).
//
// Like the wall-clock side of internal/trace — and unlike everything
// the projection pipeline computes — these are *wall-clock* quantities
// with no determinism obligations.
package slo

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"grophecy/internal/metrics"
)

// Objective is one service-level objective.
type Objective struct {
	// Name identifies the objective ("availability", "latency");
	// it must be a legal metric-name fragment.
	Name string
	// Target is the good-request fraction the objective promises,
	// in (0, 1) — e.g. 0.999 allows one bad request per thousand.
	Target float64
	// Latency, when non-zero, makes this a latency objective: a
	// request is good when it succeeded *and* finished within
	// Latency. Zero means a pure availability objective (success
	// alone decides).
	Latency time.Duration
}

// DefaultObjectives is the daemon's stock pair: 99.9% availability
// and 99% of requests under the given latency threshold.
func DefaultObjectives(latency time.Duration) []Objective {
	return []Objective{
		{Name: "availability", Target: 0.999},
		{Name: "latency", Target: 0.99, Latency: latency},
	}
}

// DefaultWindows is the standard short/long burn-rate window pair.
func DefaultWindows() []time.Duration {
	return []time.Duration{5 * time.Minute, time.Hour}
}

// Config configures a Tracker.
type Config struct {
	// Objectives to track; required.
	Objectives []Objective
	// Windows are the sliding windows, ascending; nil means
	// DefaultWindows.
	Windows []time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// Registry, when non-nil, receives slo_* burn-rate gauges
	// (slo_<objective>_burn_rate_<window>).
	Registry *metrics.Registry
}

// bucket is one second of request counts, per objective.
type bucket struct {
	sec   int64
	good  []int64
	total []int64
}

// Tracker records request outcomes and serves burn-rate snapshots.
// All methods are safe for concurrent use.
type Tracker struct {
	objectives []Objective
	windows    []time.Duration
	now        func() time.Time

	mu      sync.Mutex
	ring    []bucket
	gauges  [][]*metrics.Gauge // [objective][window]
	lastSec int64              // last second the gauges were refreshed
}

// New builds a tracker. The ring covers the longest window at
// one-second resolution.
func New(cfg Config) (*Tracker, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	for _, o := range cfg.Objectives {
		if o.Name == "" {
			return nil, fmt.Errorf("slo: objective with empty name")
		}
		if !(o.Target > 0 && o.Target < 1) {
			return nil, fmt.Errorf("slo: objective %q target %v outside (0, 1)", o.Name, o.Target)
		}
	}
	windows := cfg.Windows
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	var longest time.Duration
	for _, w := range windows {
		if w < time.Second {
			return nil, fmt.Errorf("slo: window %v below one second", w)
		}
		if w > longest {
			longest = w
		}
	}
	t := &Tracker{
		objectives: append([]Objective(nil), cfg.Objectives...),
		windows:    append([]time.Duration(nil), windows...),
		now:        cfg.Now,
	}
	if t.now == nil {
		t.now = time.Now
	}
	// +1 so the partially filled current second never evicts the
	// oldest full one.
	t.ring = make([]bucket, int(longest/time.Second)+1)
	for i := range t.ring {
		t.ring[i] = bucket{
			sec:   -1,
			good:  make([]int64, len(t.objectives)),
			total: make([]int64, len(t.objectives)),
		}
	}
	if cfg.Registry != nil {
		t.gauges = make([][]*metrics.Gauge, len(t.objectives))
		for i, o := range t.objectives {
			t.gauges[i] = make([]*metrics.Gauge, len(t.windows))
			for j, w := range t.windows {
				name := fmt.Sprintf("slo_%s_burn_rate_%s", o.Name, WindowLabel(w))
				g, err := cfg.Registry.EnsureGauge(name,
					fmt.Sprintf("Burn rate of the %s SLO (target %g) over %s.", o.Name, o.Target, w))
				if err != nil {
					return nil, err
				}
				t.gauges[i][j] = g
			}
		}
	}
	return t, nil
}

// WindowLabel renders a window as a compact metric-name fragment:
// 5m0s -> "5m", 1h0m0s -> "1h".
func WindowLabel(d time.Duration) string {
	s := d.String()
	for {
		switch {
		case strings.HasSuffix(s, "h0m0s"):
			s = strings.TrimSuffix(s, "0m0s")
		case strings.HasSuffix(s, "m0s") && len(s) > 3:
			s = strings.TrimSuffix(s, "0s")
		default:
			return s
		}
	}
}

// Record counts one finished request. success should be false for
// server-side failures (5xx); latency is the request's wall duration.
func (t *Tracker) Record(latency time.Duration, success bool) {
	if t == nil {
		return
	}
	sec := t.now().Unix()
	t.mu.Lock()
	b := &t.ring[int(sec%int64(len(t.ring)))]
	if b.sec != sec {
		b.sec = sec
		for i := range b.good {
			b.good[i], b.total[i] = 0, 0
		}
	}
	for i, o := range t.objectives {
		b.total[i]++
		good := success
		if good && o.Latency > 0 && latency > o.Latency {
			good = false
		}
		if good {
			b.good[i]++
		}
	}
	refresh := t.gauges != nil && sec != t.lastSec
	if refresh {
		t.lastSec = sec
	}
	t.mu.Unlock()
	if refresh {
		t.Snapshot()
	}
}

// WindowStatus is one objective's state over one window.
type WindowStatus struct {
	Window time.Duration `json:"window"`
	Good   int64         `json:"good"`
	Total  int64         `json:"total"`
	// ErrorRate is bad/total (0 with no traffic).
	ErrorRate float64 `json:"errorRate"`
	// BurnRate is ErrorRate divided by the objective's error budget
	// (1 - target); above 1.0 the budget is burning too fast.
	BurnRate float64 `json:"burnRate"`
}

// Status is one objective's state over every window.
type Status struct {
	Objective Objective      `json:"objective"`
	Windows   []WindowStatus `json:"windows"`
}

// Snapshot computes every objective × window burn rate and, when a
// registry was configured, refreshes the slo_* gauges.
func (t *Tracker) Snapshot() []Status {
	if t == nil {
		return nil
	}
	now := t.now().Unix()
	t.mu.Lock()
	defer t.mu.Unlock()

	out := make([]Status, len(t.objectives))
	for i, o := range t.objectives {
		out[i] = Status{Objective: o, Windows: make([]WindowStatus, len(t.windows))}
		for j, w := range t.windows {
			out[i].Windows[j].Window = w
		}
	}
	for _, b := range t.ring {
		if b.sec < 0 {
			continue
		}
		age := now - b.sec
		if age < 0 {
			continue
		}
		for j, w := range t.windows {
			if age >= int64(w/time.Second) {
				continue
			}
			for i := range t.objectives {
				out[i].Windows[j].Good += b.good[i]
				out[i].Windows[j].Total += b.total[i]
			}
		}
	}
	for i, o := range t.objectives {
		budget := 1 - o.Target
		for j := range out[i].Windows {
			ws := &out[i].Windows[j]
			if ws.Total > 0 {
				ws.ErrorRate = float64(ws.Total-ws.Good) / float64(ws.Total)
				ws.BurnRate = ws.ErrorRate / budget
			}
			if t.gauges != nil {
				t.gauges[i][j].Set(ws.BurnRate)
			}
		}
	}
	return out
}
