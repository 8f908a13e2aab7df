package metrics

import (
	"strings"
	"testing"
)

func TestCollectGoRuntime(t *testing.T) {
	r := New()
	r.CollectGoRuntime()
	s := r.Snapshot()
	if got := findSample(t, s, "go_goroutines", nil).Value; got < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", got)
	}
	if got := findSample(t, s, "go_heap_alloc_bytes", nil).Value; got <= 0 {
		t.Errorf("go_heap_alloc_bytes = %v, want > 0", got)
	}
	// Registering twice must not panic (idempotent families, hook just
	// runs twice).
	r.CollectGoRuntime()
	r.Snapshot()
}

// TestGoRuntimeTypes: the GC totals are monotone and exposed as
// counters (under their established names, which scrapers match by
// family); the instantaneous readings stay gauges.
func TestGoRuntimeTypes(t *testing.T) {
	r := New()
	r.CollectGoRuntime()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	types := map[string]string{
		"go_gc_cycles_total":        "counter",
		"go_gc_pause_seconds_total": "counter",
		"go_goroutines":             "gauge",
		"go_heap_alloc_bytes":       "gauge",
		"go_gc_last_pause_seconds":  "gauge",
	}
	for name, typ := range types {
		if want := "# TYPE " + name + " " + typ + "\n"; !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, f := range r.Snapshot() {
		if typ, ok := types[f.Name]; ok && f.Type != typ {
			t.Errorf("%s snapshot type = %q, want %q", f.Name, f.Type, typ)
		}
	}
}
