package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Layer instrumentation from outside the program: every number here
// comes from timing the benchmark's own calls into a layer's public
// functions, or from wrappers handed in through the runner's Config.

// jobModes are the runner job kinds, named by their job-name prefix.
var jobModes = []string{"capture", "replay", "cold", "warm", "ablate", "stream", "other"}

// jobMode maps a runner job name ("capture/Q6", "measure/Q3<-Q12") to
// its mode.
func jobMode(name string) string {
	prefix, _, _ := strings.Cut(name, "/")
	switch prefix {
	case "capture", "replay", "cold", "ablate", "stream":
		return prefix
	case "warm", "measure":
		return "warm"
	}
	return "other"
}

// jobSpan is one runner job as the pool reports it.
type jobSpan struct {
	name, key              string
	queued, started, ended time.Time
}

// poolWatch collects runner job spans from a pool's progress events.
// Events name the jobs and their keys; Pool.Info supplies the exact
// queue, start and finish instants.
type poolWatch struct {
	pool   *runner.Pool
	cancel func()
	done   chan struct{}

	mu   sync.Mutex
	keys map[runner.JobID]string
	last runner.JobID
}

func watchPool(p *runner.Pool) *poolWatch {
	// The buffer absorbs a whole preset's burst of queued events; a
	// dropped event only loses a key, never a job (see collect).
	ch, cancel := p.Subscribe(8192)
	w := &poolWatch{pool: p, cancel: cancel, done: make(chan struct{}), keys: map[runner.JobID]string{}}
	go func() {
		defer close(w.done)
		for ev := range ch {
			w.mu.Lock()
			w.keys[ev.Job] = ev.Key
			w.mu.Unlock()
		}
	}()
	return w
}

// collect returns every job submitted since the previous call. Job IDs
// are dense, so walking them finds jobs whose events were dropped.
func (w *poolWatch) collect() []jobSpan {
	var out []jobSpan
	for id := w.last + 1; ; id++ {
		info, ok := w.pool.Info(id)
		if !ok {
			break
		}
		w.last = id
		w.mu.Lock()
		key := w.keys[id]
		w.mu.Unlock()
		out = append(out, jobSpan{name: info.Name, key: key,
			queued: info.Submitted, started: info.Started, ended: info.Finished})
	}
	return out
}

func (w *poolWatch) stop() {
	w.cancel()
	<-w.done
}

// record adds one render's job spans under parent: a queue span from
// submission to start and a run span from start to finish for each job
// that executed. It returns the run spans, which wrapper spans are
// later adopted by.
func (w *poolWatch) record(t *Tracer, parent int, jobs []jobSpan) []Span {
	var runs []Span
	for _, j := range jobs {
		if j.started.IsZero() {
			continue // settled from the cache or skipped without running
		}
		t.Add(Span{Parent: parent, Layer: "runner.queue", Name: "queue " + j.name,
			Start: t.since(j.queued), End: t.since(j.started), Key: j.key})
		s := Span{Parent: parent, Layer: "runner", Name: "job " + j.name,
			Start: t.since(j.started), End: t.since(j.ended), Key: j.key}
		s.ID = t.Add(s)
		runs = append(runs, s)
	}
	return runs
}

// timedFactory builds systems exactly as the runner's default factory
// does, recording each construction as a core.new_system span.
func timedFactory(t *Tracer) runner.SystemFactory {
	return func(sc scenario.Scenario) (*core.System, error) {
		var s *core.System
		var err error
		t.Time(0, "core", "core.new_system", func() { s, err = core.NewScenarioSystem(sc) })
		return s, err
	}
}

// timedStore wraps the blob store handed to the runner: it counts and
// times every get and put. Chunk reads through GetReader readers are
// counted in getBytes but not timed one by one.
type timedStore struct {
	blobstore.Store
	t *Tracer

	gets, getBytes, getMisses, puts, putBytes atomic.Int64
}

func (s *timedStore) span(name, key string, start time.Time) {
	s.t.Add(Span{Layer: "blobstore", Name: name, Key: key,
		Start: s.t.since(start), End: s.t.since(time.Now())})
}

func (s *timedStore) Get(ns, key string) ([]byte, error) {
	start := time.Now()
	b, err := s.Store.Get(ns, key)
	s.span("blob.get", key, start)
	s.gets.Add(1)
	if err != nil {
		s.getMisses.Add(1)
	}
	s.getBytes.Add(int64(len(b)))
	return b, err
}

func (s *timedStore) GetReader(ns, key string) (blobstore.Reader, error) {
	start := time.Now()
	rd, err := blobstore.OpenReader(s.Store, ns, key)
	s.span("blob.get", key, start)
	s.gets.Add(1)
	if err != nil {
		s.getMisses.Add(1)
		return nil, err
	}
	return countingReader{rd, &s.getBytes}, nil
}

func (s *timedStore) Put(ns, key string, b []byte) error {
	start := time.Now()
	err := s.Store.Put(ns, key, b)
	s.span("blob.put", key, start)
	s.puts.Add(1)
	s.putBytes.Add(int64(len(b)))
	return err
}

type countingReader struct {
	blobstore.Reader
	n *atomic.Int64
}

func (r countingReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.Reader.ReadAt(p, off)
	r.n.Add(int64(n))
	return n, err
}

// goCounters is the slice of runtime.MemStats the layer report uses.
type goCounters struct {
	alloc, gcs uint64
	pause      time.Duration
}

func readGo() goCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goCounters{alloc: m.TotalAlloc, gcs: uint64(m.NumGC), pause: time.Duration(m.PauseTotalNs)}
}

func (g goCounters) delta(from goCounters) goCounters {
	return goCounters{alloc: g.alloc - from.alloc, gcs: g.gcs - from.gcs, pause: g.pause - from.pause}
}

// traceEvents counts the recorded events of a trace, over its segments
// when it is a stream trace.
func traceEvents(tr *trace.QueryTrace) uint64 {
	var n uint64
	for _, s := range tr.Streams {
		n += s.Events
	}
	for _, seg := range tr.Segments {
		for _, s := range seg.Streams {
			n += s.Events
		}
	}
	return n
}

// probe times the benchmark's own calls into core and trace on the
// workload's inputs: build, capture, encode, decode and replay. It
// checks each replay against the capture it came from.
type probe struct {
	t      *Tracer
	parent int

	captureEvents, replayEvents, blobBytes uint64
}

// coldQueries captures each query cold on a fresh system, round-trips
// its trace through both decoders, and replays it at the spec's own
// machine.
func (p *probe) coldQueries(sc scenario.Scenario, queries []string) error {
	mcfg := sc.Machine.MachineConfig()
	for _, q := range queries {
		var sys *core.System
		var err error
		p.t.Time(p.parent, "core", "probe.new_system", func() { sys, err = core.NewScenarioSystem(sc) })
		if err != nil {
			return err
		}
		var rep *core.Report
		var tr *trace.QueryTrace
		p.t.Time(p.parent, "core", "core.capture", func() { rep, tr = sys.RunColdRecorded(q) })
		p.captureEvents += traceEvents(tr)
		var blob []byte
		p.t.Time(p.parent, "trace", "trace.encode", func() { blob = tr.Marshal() })
		p.blobBytes += uint64(len(blob))

		var dec *trace.QueryTrace
		p.t.Time(p.parent, "trace", "trace.decode", func() { dec, err = trace.Unmarshal(blob) })
		if err != nil {
			return fmt.Errorf("decode %s: %w", q, err)
		}
		var got *core.Report
		p.t.Time(p.parent, "core", "core.replay", func() { got, err = core.ReplayTrace(dec, mcfg) })
		if err != nil {
			return fmt.Errorf("replay %s: %w", q, err)
		}
		p.replayEvents += traceEvents(dec)
		if err := sameReport(q, rep, got); err != nil {
			return err
		}

		var rd *trace.Reader
		p.t.Time(p.parent, "trace", "trace.open_blob", func() { rd, err = trace.OpenBlob(bytes.NewReader(blob), int64(len(blob))) })
		if err != nil {
			return fmt.Errorf("open blob %s: %w", q, err)
		}
		p.t.Time(p.parent, "core", "core.replay", func() { got, err = core.ReplayTrace(rd, mcfg) })
		if err != nil {
			return fmt.Errorf("streamed replay %s: %w", q, err)
		}
		p.replayEvents += traceEvents(dec)
		if err := sameReport(q+" (streamed)", rep, got); err != nil {
			return err
		}
	}
	return nil
}

// stream captures a phase workload on one live system, encodes the
// segmented trace, and replays it through the streaming decoder.
func (p *probe) stream(sc scenario.Scenario) error {
	var sys *core.System
	var err error
	p.t.Time(p.parent, "core", "probe.new_system", func() { sys, err = core.NewScenarioSystem(sc) })
	if err != nil {
		return err
	}
	phases := core.StreamPhasesFromSpec(sc.Workload.Phases)
	var reps []*core.Report
	var segs []trace.Segment
	p.t.Time(p.parent, "core", "core.capture", func() { reps, segs = sys.RunStreamRecorded(phases) })
	tr := sys.StreamTrace(segs)
	p.captureEvents += traceEvents(tr)
	var blob []byte
	p.t.Time(p.parent, "trace", "trace.encode", func() { blob = tr.Marshal() })
	p.blobBytes += uint64(len(blob))
	var rd *trace.Reader
	p.t.Time(p.parent, "trace", "trace.open_blob", func() { rd, err = trace.OpenBlob(bytes.NewReader(blob), int64(len(blob))) })
	if err != nil {
		return fmt.Errorf("open stream blob: %w", err)
	}
	var got []*core.Report
	p.t.Time(p.parent, "core", "core.replay", func() { got, err = core.ReplayStream(rd, sc.Machine.MachineConfig()) })
	if err != nil {
		return fmt.Errorf("replay stream: %w", err)
	}
	p.replayEvents += traceEvents(tr)
	if len(got) != len(reps) {
		return fmt.Errorf("stream replay: %d phases, captured %d", len(got), len(reps))
	}
	for k := range reps {
		if err := sameReport(fmt.Sprintf("phase %d", k), reps[k], got[k]); err != nil {
			return err
		}
	}
	return nil
}

// probeLayers runs the layer probe under a tracer of its own, adds its
// per-layer metrics to out, and writes its spans beside the run's. A
// probe error is a failed operation, not a failed run.
func probeLayers(out *outcome, runID, stem string, f func(*probe) error) error {
	t := newTracer(runID + "-probe")
	p := &probe{t: t}
	start := time.Now()
	p.parent = t.Add(Span{Layer: "bench", Name: "probe", Start: t.since(start)})
	out.attempted++
	if err := f(p); err != nil {
		out.fail("layer probe: %v", err)
	}
	t.Finish(p.parent, time.Now())
	layerSums(t.Spans(), out.metrics)
	p.metrics(out.metrics)
	return t.WriteFile(stem + ".probe-spans.json")
}

// sameReport checks that a replay reproduced its capture's timing.
func sameReport(what string, want, got *core.Report) error {
	if want.MaxClock() != got.MaxClock() || want.Total() != got.Total() {
		return fmt.Errorf("%s: replay clock %d, capture %d", what, got.MaxClock(), want.MaxClock())
	}
	return nil
}

// layerSums turns a traced run's spans into the per-layer metrics the
// spans can give: summed time per span name, and self time per layer.
func layerSums(spans []Span, m map[string]float64) {
	for _, s := range spans {
		switch s.Name {
		case "core.new_system":
			m["core.new_system_s"] += s.dur().Seconds()
			m["core.systems_built"]++
		case "core.capture":
			m["core.capture_s"] += s.dur().Seconds()
		case "core.replay":
			m["core.replay_s"] += s.dur().Seconds()
		case "trace.encode":
			m["trace.encode_s"] += s.dur().Seconds()
		case "trace.decode", "trace.open_blob":
			m["trace.decode_s"] += s.dur().Seconds()
		case "blob.get":
			m["blobstore.get_s"] += s.dur().Seconds()
		case "blob.put":
			m["blobstore.put_s"] += s.dur().Seconds()
		}
		if name, ok := strings.CutPrefix(s.Name, "job "); ok {
			m["runner.run_s."+jobMode(name)] += s.dur().Seconds()
		}
		if name, ok := strings.CutPrefix(s.Name, "queue "); ok {
			m["runner.queue_s."+jobMode(name)] += s.dur().Seconds()
		}
	}
	for layer, d := range selfTimes(spans) {
		m["self_s."+layer] += d.Seconds()
	}
}

// probeMetrics derives the per-event rates from a probe's counts.
func (p *probe) metrics(m map[string]float64) {
	m["core.capture_events"] = float64(p.captureEvents)
	m["core.replay_events"] = float64(p.replayEvents)
	m["trace.blob_bytes"] = float64(p.blobBytes)
	if p.captureEvents > 0 {
		m["core.capture_ns_per_event"] = m["core.capture_s"] * 1e9 / float64(p.captureEvents)
		m["trace.bytes_per_event"] = float64(p.blobBytes) / float64(p.captureEvents)
	}
	if p.replayEvents > 0 {
		m["core.replay_ns_per_event"] = m["core.replay_s"] * 1e9 / float64(p.replayEvents)
	}
}
