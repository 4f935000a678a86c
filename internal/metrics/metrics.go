// Package metrics is the pipeline's metrics registry: named
// counters, gauges, and fixed-bucket histograms, dumped in the
// Prometheus text exposition style. Every instrumented package
// registers its instruments once, at init time, against the Default
// registry; CLIs print the dump behind a -metrics flag.
//
// Values are deterministic for a deterministic run: instruments only
// count simulated quantities (candidates enumerated, retries
// absorbed, simulated seconds observed), never wall-clock time, so a
// given seed and fault plan reproduce the same dump.
//
// All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// nameRE is the legal instrument name shape (Prometheus-compatible).
var nameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// instrument is the common interface of all registered metric kinds.
type instrument interface {
	metricName() string
	metricHelp() string
	metricType() string
	// writeValues appends the sample lines (without HELP/TYPE).
	writeValues(b *strings.Builder)
}

// Registry holds a set of uniquely named instruments.
type Registry struct {
	mu  sync.Mutex
	ins map[string]instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ins: make(map[string]instrument)}
}

// Default is the process-wide registry all pipeline packages
// register against.
var Default = NewRegistry()

// register validates the name and claims it. Registering a duplicate
// name is an error regardless of kind.
func (r *Registry) register(in instrument) error {
	name := in.metricName()
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metrics: invalid name %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ins[name]; ok {
		return fmt.Errorf("metrics: duplicate registration of %q", name)
	}
	r.ins[name] = in
	return nil
}

// Counter is a monotonically increasing integer count.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) (*Counter, error) {
	c := &Counter{name: name, help: help}
	if err := r.register(c); err != nil {
		return nil, err
	}
	return c, nil
}

// MustCounter is NewCounter, panicking on error (for init-time use).
func (r *Registry) MustCounter(name, help string) *Counter {
	c, err := r.NewCounter(name, help)
	if err != nil {
		panic(err)
	}
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative increments are ignored (counters are
// monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) writeValues(b *strings.Builder) {
	fmt.Fprintf(b, "%s %d\n", c.name, c.v.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	name, help string
	mu         sync.Mutex
	v          float64
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) (*Gauge, error) {
	g := &Gauge{name: name, help: help}
	if err := r.register(g); err != nil {
		return nil, err
	}
	return g, nil
}

// MustGauge is NewGauge, panicking on error.
func (r *Registry) MustGauge(name, help string) *Gauge {
	g, err := r.NewGauge(name, help)
	if err != nil {
		panic(err)
	}
	return g
}

// EnsureGauge registers a gauge or returns the one already registered
// under name — for instruments owned by re-creatable components (a
// test may wire several daemons into one process registry) rather
// than package init. Registering a name held by a non-gauge is still
// an error.
func (r *Registry) EnsureGauge(name, help string) (*Gauge, error) {
	r.mu.Lock()
	if in, ok := r.ins[name]; ok {
		r.mu.Unlock()
		g, ok := in.(*Gauge)
		if !ok {
			return nil, fmt.Errorf("metrics: %q already registered as a %s", name, in.metricType())
		}
		return g, nil
	}
	r.mu.Unlock()
	return r.NewGauge(name, help)
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add shifts the gauge value.
func (g *Gauge) Add(d float64) {
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) writeValues(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", g.name, formatFloat(g.Value()))
}

// Label is one exposition label pair, used for exemplar labels.
type Label struct {
	Name, Value string
}

// exemplar is the last exemplar-carrying observation of one bucket:
// the OpenMetrics mechanism that links a histogram bucket to the
// trace that landed in it.
type exemplar struct {
	labels []Label
	value  float64
}

// Histogram is a fixed-bucket histogram. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	name, help string
	bounds     []float64

	mu        sync.Mutex
	counts    []int64 // len(bounds)+1; last is +Inf
	exemplars []*exemplar
	sum       float64
	n         int64
}

// NewHistogram registers a histogram with the given ascending bucket
// upper bounds.
func (r *Registry) NewHistogram(name, help string, bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram %q needs at least one bucket", name)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: histogram %q buckets not ascending", name)
		}
	}
	h := &Histogram{
		name: name, help: help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	if err := r.register(h); err != nil {
		return nil, err
	}
	return h, nil
}

// MustHistogram is NewHistogram, panicking on error.
func (r *Registry) MustHistogram(name, help string, bounds []float64) *Histogram {
	h, err := r.NewHistogram(name, help, bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// TimeBuckets is the shared bucket ladder for simulated durations in
// seconds: decades from a microsecond to ten seconds.
func TimeBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
}

// WaitBuckets is the bucket ladder for wall-clock waiting times in
// seconds (queueing, admission): a 1-5 ladder from 100 microseconds
// to 5 seconds, finer than TimeBuckets in the millisecond range where
// queue waits actually live.
func WaitBuckets() []float64 {
	return []float64{1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5}
}

// Observe records one sample. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	h.observe(v, nil)
}

// ObserveExemplar records one sample and attaches an exemplar to the
// bucket it lands in — typically Label{"trace_id", ...} so the
// exposition links the bucket to a concrete traced request. A later
// exemplar for the same bucket replaces the earlier one (exemplars
// are samples, not logs). With no labels it degrades to Observe.
func (h *Histogram) ObserveExemplar(v float64, labels ...Label) {
	h.observe(v, labels)
}

func (h *Histogram) observe(v float64, labels []Label) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
	if len(labels) > 0 {
		if h.exemplars == nil {
			h.exemplars = make([]*exemplar, len(h.bounds)+1)
		}
		h.exemplars[i] = &exemplar{labels: append([]Label(nil), labels...), value: v}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) writeValues(b *strings.Builder) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{%s} %d", h.name, labelPair("le", formatFloat(bound)), cum)
		h.writeExemplar(b, i)
		b.WriteByte('\n')
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket{%s} %d", h.name, labelPair("le", "+Inf"), cum)
	h.writeExemplar(b, len(h.bounds))
	b.WriteByte('\n')
	fmt.Fprintf(b, "%s_sum %s\n", h.name, formatFloat(h.sum))
	fmt.Fprintf(b, "%s_count %d\n", h.name, h.n)
}

// writeExemplar appends bucket i's exemplar in the OpenMetrics form
// ` # {label="value",...} observed-value`, if one was recorded. The
// exemplar rides the bucket its observation landed in, so its value
// always lies within the bucket's le range.
func (h *Histogram) writeExemplar(b *strings.Builder, i int) {
	if h.exemplars == nil || h.exemplars[i] == nil {
		return
	}
	ex := h.exemplars[i]
	b.WriteString(" # {")
	for j, l := range ex.labels {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labelPair(l.Name, l.Value))
	}
	b.WriteString("} ")
	b.WriteString(formatFloat(ex.value))
}

// Dump renders every instrument in the Prometheus text exposition
// style, sorted by name.
func (r *Registry) Dump() string {
	r.mu.Lock()
	names := make([]string, 0, len(r.ins))
	for name := range r.ins {
		names = append(names, name)
	}
	ins := make([]instrument, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ins = append(ins, r.ins[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, in := range ins {
		if help := in.metricHelp(); help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", in.metricName(), help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", in.metricName(), in.metricType())
		in.writeValues(&b)
	}
	return b.String()
}

// formatFloat renders floats with the shortest round-trip form, the
// same deterministic shape everywhere in the dump.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelEscaper applies the text exposition format's label-value
// escaping: backslash, double quote, and newline. Note this is NOT
// Go's %q — %q would additionally escape non-ASCII and produce
// Go-style forms Prometheus parsers reject.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelPair renders one name="value" label pair. Every label in a
// dump goes through here so the quoting is uniform (the +Inf bucket
// used to be hand-written with a different style from the finite
// ones).
func labelPair(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}
