// Package metrics is a dependency-free instrumentation kernel for the
// solver stack: atomic counters, gauges and fixed-bucket histograms with
// Prometheus text-format exposition (version 0.0.4).
//
// The design goals mirror the solver's zero-copy discipline:
//
//   - The hot path is ~zero-alloc: Observe/Inc/Add are a handful of atomic
//     operations on pre-resolved children; labeled families resolve their
//     children once (With) outside the loop.
//   - Every mutating method is nil-safe, so disabled instrumentation ("no
//     registry configured") compiles to a pointer check and nothing else —
//     callers never guard call sites.
//   - Gather returns a structured snapshot that both the /metrics exposition
//     and JSON consumers (the esrd healthz payload) read, so the two surfaces
//     can never drift.
//
// Registration is get-or-create: re-registering a name with an identical
// shape returns the existing family, while a conflicting shape panics — a
// programming error, like a duplicate flag.
package metrics

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric and label names follow the Prometheus data model.
var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Family types of the exposition format.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// addFloat atomically adds v to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Counter is a monotonically non-decreasing float64 (Prometheus semantics:
// counters are floats; integer counts stay exact up to 2^53).
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1. Nil-safe no-op.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are dropped (counters never go down).
// Nil-safe no-op.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 || math.IsNaN(v) {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe no-op.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds v (any sign). Nil-safe no-op.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Inc adds 1; Dec subtracts 1. Nil-safe no-ops.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are chosen at
// registration; Observe is a linear bucket scan (bucket counts are small by
// design) plus three atomic updates, with no allocation.
type Histogram struct {
	upper  []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	h := &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	sort.Float64s(h.upper)
	return h
}

// Observe records v (conventionally seconds). Nil-safe no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
}

// snapshot returns cumulative buckets (last bound +Inf), the total count and
// the sum. The count is derived from the bucket counts, so the +Inf bucket
// always equals _count even when read concurrently with Observe.
func (h *Histogram) snapshot() (buckets []Bucket, count uint64, sum float64) {
	buckets = make([]Bucket, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(1)
		if i < len(h.upper) {
			bound = h.upper[i]
		}
		buckets[i] = Bucket{UpperBound: bound, CumulativeCount: cum}
	}
	return buckets, cum, math.Float64frombits(h.sum.Load())
}

// DefBuckets are general-purpose latency buckets in seconds (the classic
// Prometheus defaults), suitable for request/job durations.
func DefBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// ExpBuckets returns n exponentially spaced upper bounds starting at start.
// The solver's per-phase timings live in the microsecond range, far below
// DefBuckets' floor; ExpBuckets(1e-6, 4, 10) covers 1µs .. ~260ms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// child is one label-value combination of a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one registered metric name: type, help, label schema and the
// children (one for label-less metrics).
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64      // histograms only
	fn      func() float64 // *Func metrics only, read at Gather time

	mu       sync.Mutex
	children map[string]*child
}

func (f *family) child(lvs []string) *child {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labels), len(lvs)))
	}
	key := strings.Join(lvs, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), lvs...)}
		switch f.typ {
		case TypeCounter:
			c.counter = &Counter{}
		case TypeGauge:
			c.gauge = &Gauge{}
		case TypeHistogram:
			c.hist = newHistogram(f.buckets)
		}
		f.children[key] = c
	}
	return c
}

// Registry holds a namespace of metric families. The zero value is not
// usable; NewRegistry returns a ready one. A nil *Registry is safe: every
// registration returns nil, and nil instruments no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register is the get-or-create core shared by the typed constructors.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64, fn func() float64) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRE.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		sameShape := f.typ == typ && f.help == help &&
			strings.Join(f.labels, ",") == strings.Join(labels, ",") &&
			len(f.buckets) == len(buckets) && (fn == nil) == (f.fn == nil)
		for i := range f.buckets {
			sameShape = sameShape && f.buckets[i] == buckets[i]
		}
		if !sameShape {
			panic(fmt.Sprintf("metrics: %s re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		fn:       fn,
		children: map[string]*child{},
	}
	if typ == TypeHistogram {
		sort.Float64s(f.buckets)
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, TypeCounter, nil, nil, nil).child(nil).counter
}

// Gauge registers (or returns) a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, TypeGauge, nil, nil, nil).child(nil).gauge
}

// Histogram registers (or returns) a label-less histogram with the given
// upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, TypeHistogram, nil, buckets, nil).child(nil).hist
}

// GaugeFunc registers a pull gauge whose value is read at Gather time (for
// values something else already tracks: queue depths, cache sizes).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, TypeGauge, nil, nil, fn)
}

// CounterFunc registers a pull counter read at Gather time. The callback
// must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, TypeCounter, nil, nil, fn)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, TypeCounter, labels, nil, nil)}
}

// With resolves the child for the given label values (created on first use).
// Resolve once outside hot loops; the child's methods are the fast path.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).counter
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.register(name, help, TypeHistogram, labels, buckets, nil)}
}

// With resolves the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).hist
}

// Label is one name/value pair of a sample.
type Label struct {
	Name  string
	Value string
}

// Bucket is one cumulative histogram bucket (last bound is +Inf).
type Bucket struct {
	UpperBound      float64
	CumulativeCount uint64
}

// Sample is one series of a family at Gather time.
type Sample struct {
	Labels []Label
	// Value is the counter/gauge value.
	Value float64
	// Buckets/Count/Sum are set for histograms only.
	Buckets []Bucket
	Count   uint64
	Sum     float64
}

// Family is one gathered metric family.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Snapshot is a gathered registry: families sorted by name, samples sorted
// by label values, so the exposition output is deterministic.
type Snapshot []Family

// Gather snapshots the registry (nil registry gathers empty). Pull metrics
// (GaugeFunc/CounterFunc) are evaluated here.
func (r *Registry) Gather() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make(Snapshot, 0, len(fams))
	for _, f := range fams {
		mf := Family{Name: f.name, Help: f.help, Type: f.typ}
		if f.fn != nil {
			mf.Samples = []Sample{{Value: f.fn()}}
			out = append(out, mf)
			continue
		}
		f.mu.Lock()
		children := make([]*child, 0, len(f.children))
		for _, c := range f.children {
			children = append(children, c)
		}
		f.mu.Unlock()
		sort.Slice(children, func(i, j int) bool {
			return strings.Join(children[i].labelValues, "\xff") < strings.Join(children[j].labelValues, "\xff")
		})
		for _, c := range children {
			s := Sample{Labels: make([]Label, len(f.labels))}
			for i, ln := range f.labels {
				s.Labels[i] = Label{Name: ln, Value: c.labelValues[i]}
			}
			switch f.typ {
			case TypeCounter:
				s.Value = c.counter.Value()
			case TypeGauge:
				s.Value = c.gauge.Value()
			case TypeHistogram:
				s.Buckets, s.Count, s.Sum = c.hist.snapshot()
			}
			mf.Samples = append(mf.Samples, s)
		}
		out = append(out, mf)
	}
	return out
}

// Value returns the single unlabeled sample of the named family (counter or
// gauge). The ok return is false when the family is absent or labeled.
func (s Snapshot) Value(name string) (float64, bool) {
	for _, f := range s {
		if f.Name != name {
			continue
		}
		if len(f.Samples) != 1 || len(f.Samples[0].Labels) != 0 {
			return 0, false
		}
		return f.Samples[0].Value, true
	}
	return 0, false
}

// ByLabel returns the named family's values keyed by the given label (for
// rebuilding per-transport / per-strategy JSON maps off the registry).
// Missing families return an empty map.
func (s Snapshot) ByLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, f := range s {
		if f.Name != name {
			continue
		}
		for _, sm := range f.Samples {
			for _, l := range sm.Labels {
				if l.Name == label {
					out[l.Value] = sm.Value
				}
			}
		}
	}
	return out
}

// formatValue renders a float in the exposition format.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// writeLabels renders {a="x",b="y"} (plus an optional trailing le pair);
// empty label sets render nothing.
func writeLabels(w io.Writer, labels []Label, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	sep := "{"
	for _, l := range labels {
		fmt.Fprintf(w, `%s%s="%s"`, sep, l.Name, labelEscaper.Replace(l.Value))
		sep = ","
	}
	if le != "" {
		fmt.Fprintf(w, `%sle="%s"`, sep, le)
		sep = ","
	}
	io.WriteString(w, "}")
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # HELP and # TYPE line per family, cumulative
// histogram buckets ending at +Inf, and _sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Gather().WritePrometheus(w)
}

// WritePrometheus renders an already-gathered snapshot.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, f := range s {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.Name, helpEscaper.Replace(f.Help), f.Name, f.Type); err != nil {
			return err
		}
		for _, sm := range f.Samples {
			if f.Type != TypeHistogram {
				io.WriteString(w, f.Name)
				writeLabels(w, sm.Labels, "")
				if _, err := fmt.Fprintf(w, " %s\n", formatValue(sm.Value)); err != nil {
					return err
				}
				continue
			}
			for _, b := range sm.Buckets {
				io.WriteString(w, f.Name+"_bucket")
				writeLabels(w, sm.Labels, formatValue(b.UpperBound))
				if _, err := fmt.Fprintf(w, " %d\n", b.CumulativeCount); err != nil {
					return err
				}
			}
			io.WriteString(w, f.Name+"_sum")
			writeLabels(w, sm.Labels, "")
			fmt.Fprintf(w, " %s\n", formatValue(sm.Sum))
			io.WriteString(w, f.Name+"_count")
			writeLabels(w, sm.Labels, "")
			if _, err := fmt.Fprintf(w, " %d\n", sm.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
