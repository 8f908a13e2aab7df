package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// metricKind discriminates the families a registry can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
	kindCounterFunc
)

// String returns the Prometheus TYPE keyword for the kind (a callback
// is a gauge or a counter on the wire like its instrument twin).
func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// isFunc reports whether the family's single value comes from a
// callback registered with GaugeFunc or CounterFunc.
func (k metricKind) isFunc() bool { return k == kindGaugeFunc || k == kindCounterFunc }

// Registry holds named metric families. Construct one with New and
// inject it into the subsystems that serve traffic; a nil *Registry is
// the documented no-op — every constructor on it returns a nil
// instrument whose methods do nothing — so instrumented code never
// branches on whether observability is enabled.
//
// Registration is idempotent: asking for a family that already exists
// with the same kind and label names returns the existing one, so two
// components can share an instrument by name. Re-registering a name
// with a different kind or label set is a programming error and panics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// family is one named metric family: a singleton (no labels) or a set
// of children keyed by label values.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
	fn       func() float64 // callback kinds only
}

// child is one (label values -> instrument) binding within a family.
type child struct {
	values []string
	ctr    *Counter
	gag    *Gauge
	hst    *Histogram
}

// validName enforces the Prometheus identifier charset for metric and
// label names.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// family returns (creating if needed) the named family, panicking on a
// kind or label-set conflict with an existing registration.
func (r *Registry) family(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = make(map[string]*family)
	}
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("metrics: %s re-registered as a different kind or label set", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childKey joins label values into a map key. \x1f (ASCII unit
// separator) cannot appear in sane label values, keeping distinct value
// tuples distinct.
func childKey(values []string) string { return strings.Join(values, "\x1f") }

// child returns (creating if needed) the instrument bound to the given
// label values.
func (f *family) child(values ...string) *child {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			c.ctr = &Counter{}
		case kindGauge:
			c.gag = &Gauge{}
		case kindHistogram:
			c.hst = newHistogram(f.buckets)
		}
		f.children[key] = c
	}
	return c
}

// sortedChildren returns the family's children ordered by label values,
// the deterministic order exposition and snapshots present.
func (f *family) sortedChildren() []*child {
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	return out
}

// Counter registers (or finds) an unlabeled counter family and returns
// its single instrument. Nil-safe: a nil registry returns a nil
// *Counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil, nil)
	if f == nil {
		return nil
	}
	return f.child().ctr
}

// Gauge registers (or finds) an unlabeled gauge family and returns its
// single instrument.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil, nil)
	if f == nil {
		return nil
	}
	return f.child().gag
}

// Histogram registers (or finds) an unlabeled histogram family over the
// given buckets (nil means DefBuckets) and returns its instrument.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, kindHistogram, nil, buckets)
	if f == nil {
		return nil
	}
	return f.child().hst
}

// GaugeFunc registers a gauge whose value is computed by fn at gather
// time — for values already maintained elsewhere (cache entry counts,
// pool sizes). Re-registering the same name replaces the callback, so a
// restarted component can rebind its source.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.funcFamily(name, help, kindGaugeFunc, fn)
}

// CounterFunc is GaugeFunc for a monotone total maintained elsewhere
// (process-wide event counts, runtime statistics): fn must never
// decrease, and the family is exposed with the counter type.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.funcFamily(name, help, kindCounterFunc, fn)
}

// funcFamily registers (or rebinds) a callback family of the given kind.
func (r *Registry) funcFamily(name, help string, kind metricKind, fn func() float64) {
	f := r.family(name, help, kind, nil, nil)
	if f == nil {
		return
	}
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// OnGather registers a hook run at the start of every Snapshot or
// WritePrometheus, before values are read — the place to sample
// external state (the Go runtime collector uses it). Hooks must not
// call back into Snapshot/WritePrometheus.
func (r *Registry) OnGather(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.family(name, help, kindCounter, labels, nil)
	if f == nil {
		return nil
	}
	return &CounterVec{f}
}

// With returns the counter bound to the given label values, creating it
// on first use. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values...).ctr
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.family(name, help, kindGauge, labels, nil)
	if f == nil {
		return nil
	}
	return &GaugeVec{f}
}

// With returns the gauge bound to the given label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values...).gag
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family over the
// given buckets (nil means DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, kindHistogram, labels, buckets)
	if f == nil {
		return nil
	}
	return &HistogramVec{f}
}

// With returns the histogram bound to the given label values. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values...).hst
}

// gather runs the hooks and returns the families sorted by name — the
// common front half of Snapshot and WritePrometheus.
func (r *Registry) gather() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
