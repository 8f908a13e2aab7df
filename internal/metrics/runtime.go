package metrics

import "runtime"

// CollectGoRuntime registers metrics describing the Go runtime —
// goroutine count and heap usage as gauges, GC cycle and pause totals
// as counters — refreshed by a gather hook, so the (stop-the-world)
// runtime.ReadMemStats call only happens when somebody actually scrapes
// or snapshots the registry. No-op on a nil registry.
func (r *Registry) CollectGoRuntime() {
	if r == nil {
		return
	}
	goroutines := r.Gauge("go_goroutines", "Number of goroutines that currently exist.")
	heapAlloc := r.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	heapSys := r.Gauge("go_heap_sys_bytes", "Bytes of heap memory obtained from the OS.")
	heapObjects := r.Gauge("go_heap_objects", "Number of allocated heap objects.")
	// The hook samples the GC totals into these unregistered gauges;
	// the counters read them back.
	var gcRuns, gcPause Gauge
	r.CounterFunc("go_gc_cycles_total", "Completed GC cycles since process start.", gcRuns.Value)
	r.CounterFunc("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", gcPause.Value)
	gcLastPause := r.Gauge("go_gc_last_pause_seconds", "Duration of the most recent GC pause.")
	r.OnGather(func() {
		goroutines.Set(float64(runtime.NumGoroutine()))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapAlloc.Set(float64(ms.HeapAlloc))
		heapSys.Set(float64(ms.HeapSys))
		heapObjects.Set(float64(ms.HeapObjects))
		gcRuns.Set(float64(ms.NumGC))
		gcPause.Set(float64(ms.PauseTotalNs) / 1e9)
		if ms.NumGC > 0 {
			gcLastPause.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
		}
	})
}
