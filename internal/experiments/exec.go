package experiments

import (
	"context"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Exec runs experiments through the runner subsystem: each measurement
// becomes a job on a worker pool with a content-addressed result cache,
// so sweep points execute concurrently and repeated configurations
// (the baseline machine appears in Figures 6, 7, 8/9, and 13) simulate
// once. Results are reassembled in submission order, which keeps every
// rendered table byte-identical no matter the worker count.
//
// Every job's identity is a scenario spec (see internal/scenario): the
// named experiments resolve to preset specs, custom specs arrive
// through RunScenario, and both paths expand into the same
// capture/replay jobs — so a custom spec that revisits a preset's
// configuration resolves from the same cache entries.
type Exec struct {
	pool *runner.Pool
	met  execMetrics
}

// execMetrics observes the experiment layer: host wall-clock per
// rendered experiment, and the simulated cycles behind it, so sim-time
// and host-time can be watched side by side (a cache-warm render is
// host-cheap but still "accounts for" its simulated cycles). Nil fields
// (no registry) record nothing.
type execMetrics struct {
	seconds *metrics.HistogramVec // dssmem_experiment_seconds{exp}
	cycles  *metrics.CounterVec   // dssmem_experiment_simulated_cycles_total{exp}

	// Capture/replay engine counters: executions recorded, reports
	// derived by replaying a recording, and recorded blob bytes held.
	captures   *metrics.Counter // dssmem_trace_captures_total
	replays    *metrics.Counter // dssmem_trace_replays_total
	traceBytes *metrics.Gauge   // dssmem_trace_recorded_bytes
}

// experimentBuckets spans renders from cache-warm re-renders
// (milliseconds) to full-scale `-exp all` sweeps (minutes).
var experimentBuckets = []float64{.05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

func newExecMetrics(r *metrics.Registry) execMetrics {
	// Replay totals: process-wide counters maintained by
	// internal/core and internal/trace, sampled at gather time.
	r.GaugeFunc("dssmem_trace_streamed_bytes",
		"Trace chunk bytes read on demand by streaming replay cursors.",
		func() float64 { return float64(trace.StreamedBytes()) })
	r.CounterFunc("dssmem_replay_arena_hits_total",
		"Replay skeleton systems served from the reuse arena.",
		func() float64 { return float64(core.ReadReplayStats().ArenaHits) })
	r.CounterFunc("dssmem_replay_arena_misses_total",
		"Replay skeleton systems built fresh (arena miss).",
		func() float64 { return float64(core.ReadReplayStats().ArenaMisses) })
	return execMetrics{
		seconds: r.HistogramVec("dssmem_experiment_seconds",
			"Host wall-clock per rendered experiment.", experimentBuckets, "exp"),
		cycles: r.CounterVec("dssmem_experiment_simulated_cycles_total",
			"Simulated processor cycles behind rendered experiments (cache hits re-count their cycles).", "exp"),
		captures: r.Counter("dssmem_trace_captures_total",
			"Query executions recorded as reference traces."),
		replays: r.Counter("dssmem_trace_replays_total",
			"Reports derived by replaying a recorded trace instead of executing."),
		traceBytes: r.Gauge("dssmem_trace_recorded_bytes",
			"Encoded bytes of reference traces recorded by this process."),
	}
}

// NewExec returns an Exec backed by a fresh pool with the given worker
// count (<= 0 means GOMAXPROCS).
func NewExec(workers int) *Exec {
	return NewExecConfig(runner.Config{Workers: workers})
}

// NewExecConfig returns an Exec backed by a fresh pool built from cfg
// (worker count, cache directory, metrics registry).
func NewExecConfig(cfg runner.Config) *Exec {
	return &Exec{pool: runner.New(cfg), met: newExecMetrics(cfg.Metrics)}
}

// addCycles charges simulated cycles to an experiment's counter. The
// nil check keeps the unmetered path free of even the summation loop.
func (e *Exec) addCycles(name string, clocks ...int64) {
	if e.met.cycles == nil {
		return
	}
	var total int64
	for _, c := range clocks {
		total += c
	}
	e.met.cycles.With(name).Add(float64(total))
}

// Pool exposes the underlying pool (stats, progress subscription).
func (e *Exec) Pool() *runner.Pool { return e.pool }

// Close drains the pool. The Exec is unusable afterwards.
func (e *Exec) Close() { e.pool.Close() }

var (
	defaultMu   sync.Mutex
	defaultExec *Exec
)

// Default returns the package's shared Exec (created on first use with
// GOMAXPROCS workers). The package-level Run functions delegate to it,
// so existing callers transparently gain parallelism and caching.
func Default() *Exec {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultExec == nil {
		defaultExec = NewExec(runtime.GOMAXPROCS(0))
	}
	return defaultExec
}

// Result types stored in the runner's cache; registration lets the
// optional disk tier gob-encode them.
func init() {
	gob.Register(&core.Report{})
	gob.Register(&stats.Table{})
	gob.Register(WarmResult{})
	gob.Register([]AblationPoint{})
	gob.Register(&CaptureResult{})
}

// presetScenario returns the first scenario of the named preset. The
// figures this package reproduces are defined by these specs; an
// unknown name is a programming error, not an input error.
func presetScenario(name string) scenario.Scenario {
	p, ok := scenario.PresetByName(name)
	if !ok {
		panic("experiments: unknown preset " + name)
	}
	return p.Scenarios[0]
}

// applyOptions overlays the CLI-era options' scale and seed onto a
// spec. Query lists are a per-experiment decision (sweeps take them
// from the options, the fixed-query presets do not), so callers set
// them explicitly.
func applyOptions(sc scenario.Scenario, o Options) scenario.Scenario {
	sc.Workload.Scale = o.Scale
	sc.Workload.Seed = o.Seed
	return sc
}

// pointSpec narrows a spec to one (machine, query) measurement — the
// job identity of a single cold/capture/replay point. The sweep and
// warm context are dropped so every experiment needing the same point
// (the baseline machine appears in Figures 6, 7, 8/9, and 13) shares
// one cache entry.
func pointSpec(sc scenario.Scenario, m scenario.Machine, q string) scenario.Scenario {
	sc.Name = ""
	sc.Machine = m
	sc.Workload.Queries = []string{q}
	sc.Workload.Warm = ""
	sc.Sweep = scenario.Sweep{}
	return sc
}

// coldJob builds the workhorse job: cold caches, one instance of the
// point spec's query per processor. Its result is the *core.Report.
// Because the cache key is exactly the point spec, every figure needing
// the same cold measurement shares one simulation.
func coldJob(sc scenario.Scenario, q string) *runner.Job {
	return &runner.Job{
		Name: "cold/" + q,
		Mode: "cold",
		Spec: sc,
		Body: func(c *runner.Ctx) (interface{}, error) {
			s, err := c.System()
			if err != nil {
				return nil, err
			}
			return s.RunCold(q), nil
		},
	}
}

// CaptureResult is a capture job's result: the baseline cold report
// (byte-identical to an unrecorded run) plus the recorded reference
// trace. When the pool has a trace store, the encoded blob is spilled
// there under the capture's key and Blob stays nil — replay jobs stream
// it chunk by chunk instead of holding whole traces in the result
// cache, which is what keeps resident memory flat as scale grows. Blob
// carries the bytes inline only when no store took them.
type CaptureResult struct {
	Report  *core.Report
	Blob    []byte
	Spilled bool // blob lives in the trace store under the capture key
}

// captureJob is coldJob with trace capture: it executes the point
// spec's query cold while recording the per-processor reference
// streams. One capture per (query, workload) feeds the baseline figures
// and every sweep replay.
//
// The body consults the pool's trace store (-trace-dir) before
// executing: a spilled blob regenerates the report by replaying at the
// capture's own configuration — no executor work, no database build. A
// damaged blob fails to decode and falls through to execution.
func (e *Exec) captureJob(sc scenario.Scenario, q string) *runner.Job {
	mcfg := sc.Machine.MachineConfig()
	return &runner.Job{
		Name: "capture/" + q,
		Mode: "capture",
		Spec: sc,
		Body: func(c *runner.Ctx) (interface{}, error) {
			if rd, ok := c.TraceReader(); ok {
				rep, err := replayStored(rd, mcfg)
				rd.Close()
				if err == nil {
					e.met.replays.Inc()
					return &CaptureResult{Report: rep, Spilled: true}, nil
				}
				// Damaged or unreadable blob: fall through to executing,
				// which re-records and re-spills a good one.
			}
			s, err := c.System()
			if err != nil {
				return nil, err
			}
			rep, tr := s.RunColdRecorded(q)
			blob := tr.Marshal()
			e.met.captures.Inc()
			e.met.traceBytes.Add(float64(len(blob)))
			if c.PutTraceBlob(blob) {
				return &CaptureResult{Report: rep, Spilled: true}, nil
			}
			return &CaptureResult{Report: rep, Blob: blob}, nil
		},
	}
}

// replayJob derives the cold report of the point spec by replaying
// capture's recorded streams through the timing model — no executor
// work. Replay is byte-identical to fresh execution (the reference
// stream is a pure function of query, scale, and seed), so the job
// carries the cold job's cache identity: a replayed result satisfies
// later cold submissions of the same point and vice versa.
func (e *Exec) replayJob(sc scenario.Scenario, q string, capture *runner.Job) *runner.Job {
	mcfg := sc.Machine.MachineConfig()
	return &runner.Job{
		Name:  "replay/" + q,
		Mode:  "cold",
		Spec:  sc,
		After: []*runner.Job{capture},
		Body: func(c *runner.Ctx) (interface{}, error) {
			dep, err := c.After(0)
			if err != nil {
				return nil, err
			}
			cr, ok := dep.(*CaptureResult)
			if !ok {
				return nil, fmt.Errorf("experiments: replay of %s: dependency returned %T, not a capture", q, dep)
			}
			if len(cr.Blob) > 0 {
				tr, err := trace.Unmarshal(cr.Blob)
				if err != nil {
					return nil, err
				}
				rep, err := core.ReplayTrace(tr, mcfg)
				if err != nil {
					return nil, err
				}
				e.met.replays.Inc()
				return rep, nil
			}
			// Spilled capture: stream the blob from the trace store
			// chunk by chunk instead of materializing it.
			if rd, ok := c.TraceReaderFor(capture.Key()); ok {
				rep, err := replayStored(rd, mcfg)
				rd.Close()
				if err == nil {
					e.met.replays.Inc()
					return rep, nil
				}
			}
			// The spilled blob vanished or went bad between capture and
			// replay: execute this point fresh — replay is byte-identical
			// to execution, so the fallback preserves every output.
			s, err := c.System()
			if err != nil {
				return nil, err
			}
			return s.RunCold(q), nil
		},
	}
}

// replayStored replays a trace-store blob through a streaming reader:
// header and CRC verified up front, chunks read on demand during the
// replay. The caller closes rd.
func replayStored(rd blobstore.Reader, mcfg machine.Config) (*core.Report, error) {
	src, err := trace.OpenBlob(rd, rd.Size())
	if err != nil {
		return nil, err
	}
	return core.ReplayTrace(src, mcfg)
}

// asReport unwraps a job result that is a report either way.
func asReport(v interface{}) *core.Report {
	switch r := v.(type) {
	case *core.Report:
		return r
	case *CaptureResult:
		return r.Report
	}
	panic(fmt.Sprintf("experiments: job result %T is not a report", v))
}

// reports runs a batch and casts the results, which arrive in
// submission order.
func (e *Exec) reports(jobs []*runner.Job) ([]*core.Report, error) {
	res, err := e.pool.RunAll(context.Background(), jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Report, len(res))
	for i, r := range res {
		out[i] = asReport(r)
	}
	return out, nil
}

// RunCold measures each query from a cold start on the given machine
// configuration, one job per query. The jobs capture as they execute
// (in practice mcfg is the baseline, whose recordings drive every sweep
// replay), so an `-exp all` run simulates each query's baseline exactly
// once, as the capture.
func (e *Exec) RunCold(o Options, mcfg machine.Config) ([]QueryResult, error) {
	sc := applyOptions(scenario.Default(), o)
	m := scenario.FromMachineConfig(mcfg)
	jobs := make([]*runner.Job, len(o.Queries))
	for i, q := range o.Queries {
		jobs[i] = e.captureJob(pointSpec(sc, m, q), q)
	}
	reps, err := e.reports(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]QueryResult, len(reps))
	for i, rep := range reps {
		out[i] = QueryResult{Query: o.Queries[i], Report: rep}
	}
	return out, nil
}

// runSweep expands a swept spec through the record-once/replay-many
// engine: one capture job per query at the spec's own machine, every
// sweep point derived by replaying the capture's recorded streams under
// ApplyAxis(axis, machine, point). The replay points fan out as
// parallel jobs, each a pure decode-and-replay with no executor work
// and no database build; the point whose configuration is the spec's
// machine itself is the capture.
func (e *Exec) runSweep(sc scenario.Scenario) ([]SweepPoint, error) {
	base := sc.Machine
	type coord struct {
		q   string
		prm int
		pad bool // capture appended only to anchor replays, not a point
	}
	var coords []coord
	var jobs []*runner.Job
	for _, q := range sc.Workload.Queries {
		capture := e.captureJob(pointSpec(sc, base, q), q)
		captureUsed := false
		for _, prm := range sc.Sweep.Points {
			coords = append(coords, coord{q: q, prm: prm})
			if m := scenario.ApplyAxis(sc.Sweep.Axis, base, prm); m == base && !captureUsed {
				jobs = append(jobs, capture)
				captureUsed = true
			} else {
				jobs = append(jobs, e.replayJob(pointSpec(sc, m, q), q, capture))
			}
		}
		if !captureUsed { // no baseline point in the sweep; submit the anchor anyway
			coords = append(coords, coord{q: q, pad: true})
			jobs = append(jobs, capture)
		}
	}
	reps, err := e.reports(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, len(reps))
	for i, rep := range reps {
		if coords[i].pad {
			continue
		}
		out = append(out, SweepPoint{
			Query:  coords[i].q,
			Param:  coords[i].prm,
			L1Miss: rep.Machine.L1Misses.ByGroup(),
			L2Miss: rep.Machine.L2Misses.ByGroup(),
			Bd:     rep.Total(),
			Clock:  rep.MaxClock(),
		})
	}
	return out, nil
}

// sweepFromPreset interprets a preset's swept spec under the options'
// scale, seed, and query list.
func (e *Exec) sweepFromPreset(name string, o Options) ([]SweepPoint, error) {
	sc := applyOptions(presetScenario(name), o)
	sc.Workload.Queries = o.Queries
	return e.runSweep(sc)
}

// RunLineSweep measures every query at every line size (Figures 8-9).
func (e *Exec) RunLineSweep(o Options) ([]SweepPoint, error) {
	return e.sweepFromPreset("fig8", o)
}

// RunCacheSweep measures every query at every cache size (Figures
// 10-11).
func (e *Exec) RunCacheSweep(o Options) ([]SweepPoint, error) {
	return e.sweepFromPreset("fig10", o)
}

// runWarmPair submits one warm-cache spec (target query, optional
// warmer, shared system) and returns the index of its measured job in
// jobs. The spec lowers to a stream via scenario.LegacyPhases — a
// flushed warm-up phase of the warmer and an unflushed measured phase
// of the target (or a single flushed phase when there is no warmer) —
// and each phase becomes a job on the shared system. Warming jobs are
// ephemeral and uncached — their effect is cache state — so a
// resubmission whose measured results are already cached skips the
// warming entirely. The measured job's identity is the spec itself: the
// warmer rides in the spec's workload.warm field.
func (e *Exec) runWarmPair(sc scenario.Scenario, jobs []*runner.Job) ([]*runner.Job, int) {
	target, warmer := sc.Workload.Queries[0], sc.Workload.Warm
	sc.Name = ""
	phases := core.StreamPhasesFromSpec(scenario.LegacyPhases(target, warmer, sc.Machine.Processors))
	sk := "fig12/" + target + "<-" + warmer
	var deps []*runner.Job
	if warmer != "" {
		warmup := phases[0]
		warm := &runner.Job{
			Name:      "warm/" + target + "<-" + warmer,
			Spec:      sc,
			StateKey:  sk,
			NoCache:   true,
			Ephemeral: true,
			Body: func(c *runner.Ctx) (interface{}, error) {
				s, err := c.System()
				if err != nil {
					return nil, err
				}
				s.RunStream([]core.StreamPhase{warmup})
				return nil, nil
			},
		}
		jobs = append(jobs, warm)
		deps = append(deps, warm)
	}
	measured := phases[len(phases)-1]
	measure := &runner.Job{
		Name:     "measure/" + target + "<-" + warmer,
		Mode:     "warm",
		Spec:     sc,
		StateKey: sk,
		After:    deps,
		Body: func(c *runner.Ctx) (interface{}, error) {
			s, err := c.System()
			if err != nil {
				return nil, err
			}
			s.RunStream([]core.StreamPhase{measured})
			res := WarmResult{Target: target, Warmer: warmer}
			res.L2 = s.Mach.Stats().L2Misses.ByGroup()
			return res, nil
		},
	}
	return append(jobs, measure), len(jobs)
}

// RunWarmCache runs Figure 12 through the runner: every spec of the
// fig12 preset (each of Q3 and Q12 measured cold, after itself, and
// after the other, on very large caches) becomes a warm pair.
func (e *Exec) RunWarmCache(o Options) ([]WarmResult, error) {
	p, ok := scenario.PresetByName("fig12")
	if !ok {
		panic("experiments: fig12 preset missing")
	}
	var jobs []*runner.Job
	targetIdx := make([]int, 0, len(p.Scenarios))
	for _, sc := range p.Scenarios {
		var idx int
		jobs, idx = e.runWarmPair(applyOptions(sc, o), jobs)
		targetIdx = append(targetIdx, idx)
	}
	res, err := e.pool.RunAll(context.Background(), jobs)
	if err != nil {
		return nil, err
	}
	out := make([]WarmResult, len(targetIdx))
	for i, idx := range targetIdx {
		out[i] = res[idx].(WarmResult)
	}
	return out, nil
}

// RunPrefetch runs Figure 13 from its preset spec: per query, the
// baseline capture (its key matches the Figure 6/7 baseline, so an
// `-exp all` run simulates it once) and the prefetching architecture —
// the sweep's last point — replayed from it. Prefetching changes
// timing, not the reference stream.
func (e *Exec) RunPrefetch(o Options) ([]PrefetchResult, error) {
	sc := applyOptions(presetScenario("fig13"), o)
	base := sc.Machine
	pf := scenario.ApplyAxis(sc.Sweep.Axis, base, sc.Sweep.Points[len(sc.Sweep.Points)-1])
	var jobs []*runner.Job
	for _, q := range o.Queries {
		capture := e.captureJob(pointSpec(sc, base, q), q)
		jobs = append(jobs, capture, e.replayJob(pointSpec(sc, pf, q), q, capture))
	}
	reps, err := e.reports(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]PrefetchResult, len(o.Queries))
	for i, q := range o.Queries {
		base, opt := reps[2*i], reps[2*i+1]
		out[i] = PrefetchResult{
			Query: q,
			Base:  base.Total(), Opt: opt.Total(),
			BaseClk: base.MaxClock(), OptClk: opt.MaxClock(),
			Prefetch: opt.Machine.Prefetches,
		}
	}
	return out, nil
}

// Table1 regenerates the paper's Table 1 as a cached job: the plan
// shapes do not depend on data volume, so the job clamps the scale.
func (e *Exec) Table1(o Options) (*stats.Table, error) {
	small := o
	if small.Scale > 0.002 {
		small.Scale = 0.002
	}
	sc := applyOptions(presetScenario("table1"), small)
	sc.Name = ""
	job := &runner.Job{
		Name: "table1",
		Mode: "table1",
		Spec: sc,
		Body: func(c *runner.Ctx) (interface{}, error) {
			s, err := c.System()
			if err != nil {
				return nil, err
			}
			return table1Of(s), nil
		},
	}
	res, err := e.pool.RunAll(context.Background(), []*runner.Job{job})
	if err != nil {
		return nil, err
	}
	return res[0].(*stats.Table), nil
}
