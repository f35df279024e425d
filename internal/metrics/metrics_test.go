package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestQuickCounter covers the counter contract: monotone accumulation,
// rejection of negative and NaN deltas, and nil-safety.
func TestQuickCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // dropped: counters never go down
	c.Add(math.NaN())
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter value = %v, want 3.5", got)
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(1)
	if nilC.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}

// TestQuickGauge covers set/add/inc/dec and nil-safety.
func TestQuickGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "help")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge value = %v, want 7", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
}

// TestQuickHistogram checks bucket assignment (upper bounds are inclusive),
// the implicit +Inf bucket, and that _count always equals the +Inf bucket's
// cumulative count.
func TestQuickHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "help", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	buckets, count, sum := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if want := 0.5 + 1 + 1.5 + 3 + 100; sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	wantCum := []uint64{2, 3, 4, 5} // le=1:{0.5,1} le=2:{1.5} le=4:{3} +Inf:{100}
	if len(buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(buckets), len(wantCum))
	}
	for i, b := range buckets {
		if b.CumulativeCount != wantCum[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, b.CumulativeCount, wantCum[i])
		}
	}
	if !math.IsInf(buckets[len(buckets)-1].UpperBound, 1) {
		t.Fatal("last bucket bound must be +Inf")
	}
	var nilH *Histogram
	nilH.Observe(1) // must not panic
}

// TestQuickVecChildren checks that With resolves one child per label-value
// combination and accumulates independently.
func TestQuickVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_labeled_total", "help", "kind")
	v.With("a").Add(2)
	v.With("b").Inc()
	v.With("a").Inc()
	snap := r.Gather()
	by := snap.ByLabel("test_labeled_total", "kind")
	if by["a"] != 3 || by["b"] != 1 {
		t.Fatalf("ByLabel = %v, want a:3 b:1", by)
	}
}

// TestQuickGetOrCreate checks registration semantics: an identical re-register
// returns the same underlying family, a conflicting shape panics.
func TestQuickGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "help")
	b := r.Counter("test_total", "help")
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("identical re-registration must return the same counter")
	}
	mustPanic(t, "type conflict", func() { r.Gauge("test_total", "help") })
	mustPanic(t, "help conflict", func() { r.Counter("test_total", "other help") })
	mustPanic(t, "bad metric name", func() { r.Counter("bad-name", "help") })
	mustPanic(t, "bad label name", func() { r.CounterVec("test_l_total", "help", "bad-label") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s must panic", what)
		}
	}()
	fn()
}

// TestQuickNilRegistry checks the disabled-instrumentation path: a nil
// registry hands out nil instruments everywhere and gathers empty.
func TestQuickNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("a_total", "h").Inc()
	r.Gauge("b", "h").Set(1)
	r.Histogram("c_seconds", "h", DefBuckets()).Observe(1)
	r.CounterVec("d_total", "h", "l").With("x").Inc()
	r.HistogramVec("f_seconds", "h", DefBuckets(), "l").With("x").Observe(1)
	r.GaugeFunc("g", "h", func() float64 { return 1 })
	r.CounterFunc("i_total", "h", func() float64 { return 1 })
	if len(r.Gather()) != 0 {
		t.Fatal("nil registry must gather empty")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, %v; want empty, nil", sb.String(), err)
	}
}

// TestQuickConcurrentObserve hammers one histogram and one counter from many
// goroutines and checks nothing is lost (the atomics are the whole point).
func TestQuickConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "h")
	h := r.Histogram("test_seconds", "h", []float64{0.5})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %v, want %d", c.Value(), workers*per)
	}
	if _, count, _ := h.snapshot(); count != workers*per {
		t.Fatalf("histogram count = %d, want %d", count, workers*per)
	}
}

// TestQuickSnapshotValue covers the unlabeled-single-sample accessor.
func TestQuickSnapshotValue(t *testing.T) {
	r := NewRegistry()
	r.Gauge("plain", "h").Set(42)
	r.CounterVec("labeled_total", "h", "l").With("x").Inc()
	snap := r.Gather()
	if v, ok := snap.Value("plain"); !ok || v != 42 {
		t.Fatalf("Value(plain) = %v, %v; want 42, true", v, ok)
	}
	if _, ok := snap.Value("labeled_total"); ok {
		t.Fatal("Value on a labeled family must report !ok")
	}
	if _, ok := snap.Value("absent"); ok {
		t.Fatal("Value on an absent family must report !ok")
	}
}

// TestQuickGaugeFunc checks pull metrics are evaluated at Gather time.
func TestQuickGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("pull", "h", func() float64 { return v })
	if got, _ := r.Gather().Value("pull"); got != 1 {
		t.Fatalf("pull gauge = %v, want 1", got)
	}
	v = 2
	if got, _ := r.Gather().Value("pull"); got != 2 {
		t.Fatalf("pull gauge = %v, want 2 after update", got)
	}
}

// TestQuickExpBuckets checks the exponential ladder and its argument guard.
func TestQuickExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 4, 4)
	want := []float64{1e-6, 4e-6, 1.6e-5, 6.4e-5}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("ExpBuckets[%d] = %g, want %g", i, b[i], want[i])
		}
	}
	mustPanic(t, "bad ExpBuckets args", func() { ExpBuckets(0, 2, 3) })
}

// TestQuickExposition renders a small registry and checks the text format
// line by line: HELP/TYPE headers, label rendering with escaping, histogram
// bucket/sum/count series, and ±Inf formatting.
func TestQuickExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("esrd_a_total", "counts a\nsecond line").Add(3)
	r.Gauge("esrd_b", "gauge b").Set(1.5)
	r.CounterVec("esrd_d_total", "counter d", "kind").With(`x"y\z`).Inc()
	r.Histogram("esrd_c_seconds", "hist c", []float64{1, 2}).Observe(1.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP esrd_a_total counts a\\nsecond line\n",
		"# TYPE esrd_a_total counter\n",
		"esrd_a_total 3\n",
		"# TYPE esrd_b gauge\n",
		"esrd_b 1.5\n",
		`esrd_d_total{kind="x\"y\\z"} 1` + "\n",
		"# TYPE esrd_c_seconds histogram\n",
		`esrd_c_seconds_bucket{le="1"} 0` + "\n",
		`esrd_c_seconds_bucket{le="2"} 1` + "\n",
		`esrd_c_seconds_bucket{le="+Inf"} 1` + "\n",
		"esrd_c_seconds_sum 1.5\n",
		"esrd_c_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\nfull output:\n%s", want, out)
		}
	}
	if probs := Lint(out); len(probs) != 0 {
		t.Errorf("lint problems on clean registry: %v", probs)
	}
}

// TestQuickLint checks the linter itself catches the defect classes it
// exists for.
func TestQuickLint(t *testing.T) {
	clean := "" +
		"# HELP a_total counts\n# TYPE a_total counter\na_total 1\n" +
		"# HELP b_seconds hist\n# TYPE b_seconds histogram\n" +
		"b_seconds_bucket{le=\"1\"} 2\nb_seconds_bucket{le=\"+Inf\"} 3\n" +
		"b_seconds_sum 1.5\nb_seconds_count 3\n"
	if probs := Lint(clean); len(probs) != 0 {
		t.Fatalf("clean exposition flagged: %v", probs)
	}
	cases := map[string]string{
		"missing header":     "a_total 1\n",
		"counter suffix":     "# HELP a help\n# TYPE a counter\na 1\n",
		"duplicate series":   "# HELP a_total h\n# TYPE a_total counter\na_total 1\na_total 2\n",
		"unknown type":       "# HELP a h\n# TYPE a summary\na 1\n",
		"bad value":          "# HELP a h\n# TYPE a gauge\na x\n",
		"interleaved series": "# HELP a h\n# TYPE a gauge\nother 1\n",
		"no +Inf bucket":     "# HELP b h\n# TYPE b histogram\nb_bucket{le=\"1\"} 1\nb_sum 1\nb_count 1\n",
		"count mismatch":     "# HELP b h\n# TYPE b histogram\nb_bucket{le=\"+Inf\"} 2\nb_sum 1\nb_count 3\n",
		"decreasing cumulative": "# HELP b h\n# TYPE b histogram\nb_bucket{le=\"1\"} 5\n" +
			"b_bucket{le=\"+Inf\"} 3\nb_sum 1\nb_count 3\n",
	}
	for what, text := range cases {
		if probs := Lint(text); len(probs) == 0 {
			t.Errorf("%s: lint found no problems in %q", what, text)
		}
	}
}
