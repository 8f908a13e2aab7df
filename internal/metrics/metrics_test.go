package metrics

import (
	"strings"
	"testing"
)

// findSample locates one sample in a snapshot by family name and label
// set; it fails the test if the family or sample is missing.
func findSample(t *testing.T, s Snapshot, name string, labels map[string]string) Sample {
	t.Helper()
	for _, f := range s {
		if f.Name != name {
			continue
		}
		for _, smp := range f.Samples {
			if len(smp.Labels) != len(labels) {
				continue
			}
			match := true
			for k, v := range labels {
				if smp.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return smp
			}
		}
		t.Fatalf("family %s has no sample with labels %v (samples: %+v)", name, labels, f.Samples)
	}
	t.Fatalf("snapshot has no family %s", name)
	return Sample{}
}

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(2)
	c.Add(0.5) // fractional path
	c.Add(1.5)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %v, want 5", got)
	}
	// Same name returns the same instrument.
	if r.Counter("test_ops_total", "ops") != c {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	r := New()
	g := r.Gauge("test_depth", "depth")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(2.5)
	g.Sub(0.5)
	if got := g.Value(); got != 12 {
		t.Errorf("gauge = %v, want 12", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Errorf("gauge = %v, want -3", got)
	}
}

func TestVecs(t *testing.T) {
	r := New()
	cv := r.CounterVec("test_hits_total", "hits", "tier")
	cv.With("memory").Inc()
	cv.With("memory").Inc()
	cv.With("disk").Inc()
	if cv.With("memory") != cv.With("memory") {
		t.Error("With returned different instruments for equal labels")
	}
	if got := cv.With("memory").Value(); got != 2 {
		t.Errorf("memory hits = %v, want 2", got)
	}

	gv := r.GaugeVec("test_temp", "temp", "zone")
	gv.With("a").Set(1)
	gv.With("b").Set(2)

	hv := r.HistogramVec("test_lat_seconds", "lat", nil, "route")
	hv.With("/x").Observe(0.3)

	s := r.Snapshot()
	if got := findSample(t, s, "test_hits_total", map[string]string{"tier": "disk"}).Value; got != 1 {
		t.Errorf("disk hits sample = %v, want 1", got)
	}
	if got := findSample(t, s, "test_temp", map[string]string{"zone": "b"}).Value; got != 2 {
		t.Errorf("zone b = %v, want 2", got)
	}
	if got := findSample(t, s, "test_lat_seconds", map[string]string{"route": "/x"}).Count; got != 1 {
		t.Errorf("histogram count = %v, want 1", got)
	}
}

func TestRegistryConflictsPanic(t *testing.T) {
	r := New()
	r.Counter("test_a_total", "a")
	for name, fn := range map[string]func(){
		"kind change":       func() { r.Gauge("test_a_total", "a") },
		"func kind change":  func() { r.CounterFunc("test_a_total", "a", nil) },
		"label change":      func() { r.CounterVec("test_a_total", "a", "x") },
		"bad metric name":   func() { r.Counter("0bad", "") },
		"bad label name":    func() { r.CounterVec("test_b_total", "", "bad-label") },
		"wrong label count": func() { r.CounterVec("test_c_total", "", "x").With("1", "2") },
		"empty buckets":     func() { r.Histogram("test_h", "", []float64{}) },
		"unsorted buckets":  func() { r.Histogram("test_h2", "", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestNilRegistry is the zero-cost contract: every constructor on a nil
// registry returns a nil instrument, and every operation on those is a
// no-op rather than a panic.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x_total", "").Inc()
	r.Counter("x_total", "").Add(2)
	r.Gauge("g", "").Set(1)
	r.Gauge("g", "").Dec()
	r.Histogram("h", "", nil).Observe(1)
	r.CounterVec("cv_total", "", "l").With("v").Inc()
	r.GaugeVec("gv", "", "l").With("v").Add(1)
	r.HistogramVec("hv", "", nil, "l").With("v").Observe(1)
	r.GaugeFunc("gf", "", func() float64 { return 1 })
	r.CounterFunc("cf_total", "", func() float64 { return 1 })
	r.OnGather(func() {})
	r.CollectGoRuntime()
	if s := r.Snapshot(); s != nil {
		t.Errorf("nil registry snapshot = %v, want nil", s)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry exposition wrote %q, err %v", sb.String(), err)
	}
	if got := r.Counter("x_total", "").Value(); got != 0 {
		t.Errorf("nil counter value = %v", got)
	}
	if got := r.Histogram("h", "", nil).Snapshot(); got.Count != 0 || got.Buckets != nil {
		t.Errorf("nil histogram snapshot = %+v", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := New()
	v := 7.0
	r.GaugeFunc("test_fn", "fn", func() float64 { return v })
	if got := findSample(t, r.Snapshot(), "test_fn", nil).Value; got != 7 {
		t.Errorf("gauge func = %v, want 7", got)
	}
	// Re-registration rebinds the callback.
	r.GaugeFunc("test_fn", "fn", func() float64 { return 42 })
	if got := findSample(t, r.Snapshot(), "test_fn", nil).Value; got != 42 {
		t.Errorf("rebound gauge func = %v, want 42", got)
	}
}

// TestCounterFunc: a callback counter reads like a gauge callback but
// is typed as a counter, and re-registration rebinds it.
func TestCounterFunc(t *testing.T) {
	r := New()
	v := 3.0
	r.CounterFunc("test_fn_total", "fn", func() float64 { return v })
	v = 5
	s := r.Snapshot()
	if got := findSample(t, s, "test_fn_total", nil).Value; got != 5 {
		t.Errorf("counter func = %v, want 5", got)
	}
	if s[0].Type != "counter" {
		t.Errorf("counter func snapshot type = %q, want counter", s[0].Type)
	}
	r.CounterFunc("test_fn_total", "fn", func() float64 { return 9 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE test_fn_total counter\ntest_fn_total 9\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, sb.String())
	}
}

func TestOnGatherHook(t *testing.T) {
	r := New()
	g := r.Gauge("test_sampled", "")
	calls := 0
	r.OnGather(func() { calls++; g.Set(float64(calls)) })
	r.Snapshot()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if calls != 2 {
		t.Errorf("hook ran %d times, want 2", calls)
	}
	if g.Value() != 2 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
}
