package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// The in-process workloads call the experiments layer directly, in the
// benchmark's own process, which is then the process under test.

// streamBatch is how many stream specs one client_streams iteration
// renders. Iterations alternate between streamBatches batches of specs:
// a run then draws twice as many query variants, which halves how much
// the seed's draw moves the median, and every batch still runs at least
// twice in a run of two or more iterations, so the runs of one batch can
// be checked against each other.
const (
	streamBatch   = 4
	streamBatches = 2
)

// batches is how many distinct inputs a workload's iterations cycle
// through.
func batches(w string) int {
	if w == "client_streams" {
		return streamBatches
	}
	return 1
}

// inprocIteration runs one iteration: a fresh Exec, the workload's
// renders in order, every report folded into one digest. With a tracer
// the pool is watched, systems are built through a timed factory and
// blobs go through a timed store.
type inprocIteration struct {
	batch     int
	wall      time.Duration
	cpu       time.Duration // process CPU time (user + system)
	renders   int           // calls into the experiments layer
	errs      []string      // the calls that failed
	digest    string
	scorePass int
	scoreAll  int
	jobs      runner.Stats
	modes     map[string]int64 // executed jobs by mode
	heapLive  float64          // MB, after a forced GC with the Exec still open
	goUse     goCounters
	blobs     *timedStore
}

// newExec builds the Exec the workload runs on: the program's default
// flags on GOMAXPROCS workers. client_streams hands the runner an
// in-memory blob store, as dssmemd does for the stream specs it serves.
func newExec(w string, t *Tracer) (*experiments.Exec, *timedStore) {
	cfg := runner.Config{}
	var ts *timedStore
	if w == "client_streams" {
		cfg.Blobs = blobstore.NewMem()
		if t != nil {
			ts = &timedStore{Store: cfg.Blobs, t: t}
			cfg.Blobs = ts
		}
	}
	if t != nil {
		cfg.Factory = timedFactory(t)
	}
	return experiments.NewExecConfig(cfg), ts
}

// render is one call into the experiments layer: a preset for
// paper_all, a stream spec for client_streams.
type render struct {
	name string
	run  func(e *experiments.Exec, w io.Writer) error
}

func paperRenders(seed uint64) []render {
	o := experiments.Defaults()
	o.Scale = benchScale
	o.Seed = seed
	o.Queries = paperQueries
	var out []render
	for _, name := range experiments.KnownExperiments {
		out = append(out, render{name: name, run: func(e *experiments.Exec, w io.Writer) error {
			// The same framing `dssmem -exp all` prints around each
			// experiment, so the digest is that of its stdout.
			fmt.Fprintf(w, "==== %s ====\n", name)
			if err := e.Render(w, name, o); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return nil
		}})
	}
	return out
}

func streamRenders(seed uint64, batch int) []render {
	var out []render
	for i, sc := range streamSpecs(seed, streamBatch*streamBatches)[batch*streamBatch : (batch+1)*streamBatch] {
		out = append(out, render{name: "stream" + strconv.Itoa(i), run: func(e *experiments.Exec, w io.Writer) error {
			return e.RenderScenario(w, sc)
		}})
	}
	return out
}

var scoreLine = regexp.MustCompile(`(?m)^(\d+)/(\d+) claims hold$`)

// runIteration makes one iteration on the given batch of inputs. A
// render that fails is recorded in the iteration's errs and the
// iteration goes on.
func runIteration(w string, seed uint64, batch int, t *Tracer, layers map[string]float64) *inprocIteration {
	renders := paperRenders(seed)
	if w == "client_streams" {
		renders = streamRenders(seed, batch)
	}
	it := &inprocIteration{batch: batch}
	// Collect the previous iteration's garbage before the clock starts,
	// so no iteration pays for another's.
	runtime.GC()
	g0 := readGo()
	cpu0 := processCPU()
	start := time.Now()
	e, ts := newExec(w, t)
	defer e.Close()
	it.blobs = ts
	var watch *poolWatch
	var root int
	var jobSpans []Span
	var renderSpans []Span
	if t != nil {
		watch = watchPool(e.Pool())
		defer watch.stop()
		root = t.Add(Span{Layer: "bench", Name: "iteration", Start: t.since(start)})
	}
	h := sha256.New()
	for _, r := range renders {
		var out strings.Builder
		rs := time.Now()
		err := r.run(e, &out)
		re := time.Now()
		it.renders++
		if err != nil {
			it.errs = append(it.errs, fmt.Sprintf("%s: %v", r.name, err))
		}
		io.WriteString(h, out.String())
		if m := scoreLine.FindStringSubmatch(out.String()); m != nil && r.name == "scorecard" {
			it.scorePass, _ = strconv.Atoi(m[1])
			it.scoreAll, _ = strconv.Atoi(m[2])
		}
		if t != nil {
			s := Span{Parent: root, Layer: "experiments", Name: "render." + r.name,
				Start: t.since(rs), End: t.since(re)}
			s.ID = t.Add(s)
			renderSpans = append(renderSpans, s)
			jobSpans = append(jobSpans, watch.record(t, s.ID, watch.collect())...)
			if layers != nil {
				key := "experiments.render_s." + r.name
				if w == "client_streams" {
					key = "experiments.render_s.scenario"
				}
				layers[key] += re.Sub(rs).Seconds()
			}
		}
	}
	it.wall = time.Since(start)
	it.cpu = processCPU() - cpu0
	it.digest = fmt.Sprintf("%x", h.Sum(nil))
	it.jobs = e.Pool().Stats()
	// Executed jobs by mode; job IDs are dense.
	it.modes = map[string]int64{}
	for id := runner.JobID(1); ; id++ {
		info, ok := e.Pool().Info(id)
		if !ok {
			break
		}
		if !info.Started.IsZero() {
			it.modes[jobMode(info.Name)]++
		}
	}
	it.goUse = readGo().delta(g0)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	it.heapLive = float64(ms.HeapAlloc) / (1 << 20)
	if t != nil {
		t.Finish(root, start.Add(it.wall))
		// Wrapper spans (system builds, blob calls) belong to the job
		// running them; the rest, such as result-cache lookups at
		// submission, to the render that was waiting.
		var orphans []int
		for _, s := range t.Spans() {
			if s.Parent == 0 && s.ID != root {
				orphans = append(orphans, s.ID)
			}
		}
		adopt(t, orphans, append(jobSpans, renderSpans...))
	}
	return it
}

// processCPU is this process's CPU time so far, user plus system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupInproc is the set-up the in-process workloads pay before their
// first job: Exec construction plus one database population.
func setupInproc(w string, seed uint64) (time.Duration, error) {
	start := time.Now()
	e, _ := newExec(w, nil)
	sc := baseSpec(seed)
	if w == "client_streams" {
		sc = streamSpecs(seed, 1)[0]
	}
	_, err := core.NewScenarioSystem(sc)
	d := time.Since(start)
	e.Close()
	return d, err
}

// probeInproc runs the layer probe on the workload's own inputs.
func probeInproc(w string, seed uint64, p *probe) error {
	if w == "client_streams" {
		return p.stream(streamSpecs(seed, 1)[0])
	}
	return p.coldQueries(baseSpec(seed), paperQueries)
}

// runnerLayers adds the runner's per-layer metrics from an iteration's
// pool stats and job spans.
func runnerLayers(it *inprocIteration, spans []Span, m map[string]float64) {
	st := it.jobs
	m["runner.jobs_submitted"] = float64(st.Submitted)
	m["runner.busy_s"] = st.BusySeconds
	m["runner.utilization"] = st.BusySeconds / (float64(st.Workers) * it.wall.Seconds())
	m["runner.cache_hit_ratio"] = st.HitRate()
	var waits []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "queue ") {
			waits = append(waits, s.dur().Seconds())
		}
		if strings.HasPrefix(s.Name, "job ") {
			m["runner.jobs_executed"]++
		}
	}
	m["runner.queue_wait_p50_s"] = percentile(waits, 0.5)
	m["runner.queue_wait_p90_s"] = percentile(waits, 0.9)
	m["runner.critical_path_s"] = criticalPath(spans).Seconds()
}

// criticalPath estimates the blocking chain of a traced iteration.
// Renders run one after another, so the path is the sum over renders of
// each render's longest job chain. Dependency edges are not visible from
// outside the runner, so chains are inferred from job names: a query's
// capture runs before its replays, a warm-up before its measurement,
// and a stream's phases one after another. A chain's length is its
// anchors (captures, warm-ups, phases) in sequence plus its longest
// leaf (a replay or measurement); any other job is a chain of its own.
func criticalPath(spans []Span) time.Duration {
	type chain struct{ anchors, leaf time.Duration }
	byRender := map[int]map[string]*chain{}
	for _, s := range spans {
		name, ok := strings.CutPrefix(s.Name, "job ")
		if !ok {
			continue
		}
		chains := byRender[s.Parent]
		if chains == nil {
			chains = map[string]*chain{}
			byRender[s.Parent] = chains
		}
		mode := jobMode(name)
		_, group, _ := strings.Cut(name, "/")
		switch mode {
		case "stream":
			group = "stream"
		case "capture", "replay", "warm":
		default:
			group = strconv.Itoa(s.ID)
		}
		c := chains[group]
		if c == nil {
			c = &chain{}
			chains[group] = c
		}
		if mode == "replay" || (mode == "warm" && strings.HasPrefix(name, "measure/")) {
			c.leaf = max(c.leaf, s.dur())
		} else {
			c.anchors += s.dur()
		}
	}
	var total time.Duration
	for _, chains := range byRender {
		var longest time.Duration
		for _, c := range chains {
			longest = max(longest, c.anchors+c.leaf)
		}
		total += longest
	}
	return total
}
