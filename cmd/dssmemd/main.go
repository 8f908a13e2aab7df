// Command dssmemd serves the paper's experiments over HTTP: a
// long-lived daemon in front of the internal/runner worker pool, so
// repeated experiment requests are answered from the content-addressed
// result cache instead of re-simulating.
//
//	dssmemd [-addr :8080] [-jobs N] [-cache-dir DIR] [-trace-dir DIR] [-wal-dir DIR]
//
// Endpoints:
//
//	POST /v1/experiments      submit {"exp":"fig8","scale":0.01,...}; returns {"id":...}
//	GET  /v1/experiments/{id} status; when done, the rendered report text
//	POST /v1/scenarios        render one declarative scenario spec (JSON body);
//	                          returns {"name","preset","hash","report"} synchronously.
//	                          Specs may carry workload.phases (a multi-phase query
//	                          stream); phase streams render per-phase tables and
//	                          hash under the s2- stream format generation
//	GET  /v1/scenarios/presets the preset specs behind every named experiment
//	GET  /v1/healthz          liveness
//	GET  /v1/stats            JSON operational snapshot: uptime, requests, cache hit rate
//	GET  /metrics             Prometheus text exposition (internal/metrics)
//	GET  /debug/pprof/        live profiling (CPU, heap, goroutine, trace)
//
// Every route runs behind the internal/metrics HTTP middleware, so
// request counts, status classes, latency histograms, and in-flight
// gauges land on /metrics alongside the runner, cache, experiment, and
// Go-runtime instruments.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, lets
// in-flight experiments finish rendering, then drains the pool. With
// -wal-dir set, every job and task transition is journaled to a
// write-ahead log first, and a restarted daemon replays the log:
// finished jobs keep serving their reports, unfinished ones re-run,
// and drained leases come back queued.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/blobstore"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/wal"
)

// request is the POST /v1/experiments body. Zero-valued fields take the
// paper's defaults.
type request struct {
	Exp     string   `json:"exp"`
	Scale   float64  `json:"scale,omitempty"`
	Seed    uint64   `json:"seed,omitempty"`
	Queries []string `json:"queries,omitempty"`
}

// experimentRun is one submitted experiment's lifecycle record.
type experimentRun struct {
	ID        int64     `json:"id"`
	Exp       string    `json:"exp"`
	State     string    `json:"state"` // running, done, failed
	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished,omitempty"`
	Output    string    `json:"output,omitempty"`
	Error     string    `json:"error,omitempty"`

	mu sync.Mutex
}

func (r *experimentRun) snapshot() experimentRun {
	r.mu.Lock()
	defer r.mu.Unlock()
	return experimentRun{
		ID: r.ID, Exp: r.Exp, State: r.State,
		Submitted: r.Submitted, Finished: r.Finished,
		Output: r.Output, Error: r.Error,
	}
}

// server owns the Exec, the run table, and the metrics registry.
// Experiment lifecycle accounting lives entirely in registry counters;
// /v1/stats reads them back, so the JSON view and /metrics can never
// disagree.
type server struct {
	exec    *experiments.Exec
	reg     *metrics.Registry
	httpm   *metrics.HTTPMetrics
	start   time.Time
	store   blobstore.Store // local blob store served at /v1/blobs
	coord   *cluster.Coordinator
	manager *cluster.Manager
	journal *cluster.Journal // nil = not durable
	// renderTimeout bounds POST /v1/scenarios server-side; 0 = no bound
	// (the render still completes and caches after a 504, so a retry of
	// the same spec is cheap).
	renderTimeout time.Duration

	expSubmitted *metrics.Counter
	expDone      *metrics.Counter
	expFailed    *metrics.Counter
	scRendered   *metrics.CounterVec

	mu     sync.Mutex
	nextID int64
	runs   map[int64]*experimentRun
	wg     sync.WaitGroup
	closed bool
}

// newServer builds the daemon. jl and rec may be nil (no -wal-dir):
// the fabric then runs in-memory only. With a journal, the coordinator
// and manager restore the recovered state before serving; the caller
// resumes unfinished jobs (manager.Resume) once it is ready to run
// them.
func newServer(exec *experiments.Exec, reg *metrics.Registry, store blobstore.Store, renderTimeout time.Duration, jl *cluster.Journal, rec *cluster.Recovered) *server {
	if store == nil {
		store = blobstore.NewMem()
	}
	cmet := cluster.NewMetrics(reg)
	coord := cluster.NewCoordinator(cmet, cluster.Options{Journal: jl})
	coord.Restore(rec)
	manager := cluster.NewManager(exec, coord, cmet)
	manager.UseJournal(jl)
	manager.Restore(rec)
	return &server{
		exec:          exec,
		reg:           reg,
		httpm:         metrics.NewHTTPMetrics(reg),
		start:         time.Now(),
		store:         store,
		coord:         coord,
		manager:       manager,
		journal:       jl,
		renderTimeout: renderTimeout,
		expSubmitted: reg.Counter("dssmem_experiments_submitted_total",
			"Experiment requests accepted by POST /v1/experiments."),
		expDone: reg.Counter("dssmem_experiments_done_total",
			"Submitted experiments that rendered successfully."),
		expFailed: reg.Counter("dssmem_experiments_failed_total",
			"Submitted experiments that failed to render."),
		scRendered: reg.CounterVec("dssmem_scenarios_rendered_total",
			"Scenario specs rendered by POST /v1/scenarios, by preset name (custom specs label \"custom\").",
			"preset"),
		nextID: 1,
		runs:   make(map[int64]*experimentRun),
	}
}

// handler builds the route table. Each route is wrapped with the HTTP
// middleware under its pattern (not the concrete URL), so /metrics
// cardinality stays bounded no matter how many experiment ids exist.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.Handler) {
		mux.Handle(pattern, s.httpm.Wrap(route, h))
	}
	handle("POST /v1/experiments", "/v1/experiments", http.HandlerFunc(s.submit))
	handle("GET /v1/experiments/{id}", "/v1/experiments/{id}", http.HandlerFunc(s.status))
	handle("POST /v1/scenarios", "/v1/scenarios", http.HandlerFunc(s.submitScenario))
	handle("GET /v1/scenarios/presets", "/v1/scenarios/presets", http.HandlerFunc(s.presets))
	// Async job API: submit, poll, stream progress, fetch the report.
	handle("POST /v1/jobs", "/v1/jobs", http.HandlerFunc(s.manager.HandleSubmit))
	handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", http.HandlerFunc(s.manager.HandleStatus))
	handle("GET /v1/jobs/{id}/events", "/v1/jobs/{id}/events", http.HandlerFunc(s.manager.HandleEvents))
	handle("GET /v1/jobs/{id}/report", "/v1/jobs/{id}/report", http.HandlerFunc(s.manager.HandleReport))
	// Cluster fabric: the coordinator protocol workers drive, and the
	// local blob store peers read through (never the fan — a peer's GET
	// must not recurse into further peer fetches).
	clusterH := s.coord.Handler()
	handle("/v1/cluster", "/v1/cluster", clusterH)
	handle("/v1/cluster/", "/v1/cluster", clusterH)
	handle(blobstore.PathPrefix+"/", "/v1/blobs", blobstore.Handler(s.store))
	handle("GET /v1/healthz", "/v1/healthz", http.HandlerFunc(s.healthz))
	handle("GET /v1/stats", "/v1/stats", http.HandlerFunc(s.stats))
	handle("GET /metrics", "/metrics", s.reg.Handler())
	// Live profiling of a running daemon: `go tool pprof
	// http://host/debug/pprof/profile` while experiments execute.
	handle("/debug/pprof/", "/debug/pprof", http.HandlerFunc(pprof.Index))
	handle("/debug/pprof/cmdline", "/debug/pprof", http.HandlerFunc(pprof.Cmdline))
	handle("/debug/pprof/profile", "/debug/pprof", http.HandlerFunc(pprof.Profile))
	handle("/debug/pprof/symbol", "/debug/pprof", http.HandlerFunc(pprof.Symbol))
	handle("/debug/pprof/trace", "/debug/pprof", http.HandlerFunc(pprof.Trace))
	return mux
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var req request
	dec := json.NewDecoder(r.Body)
	// Unknown fields are errors, not silently ignored: a misspelled or
	// retired option must not run an experiment the caller did not ask for.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if !experiments.IsKnown(req.Exp) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown experiment %q; valid: %s",
			req.Exp, strings.Join(experiments.KnownExperiments, ", ")))
		return
	}
	o := experiments.Defaults()
	if req.Scale > 0 {
		o.Scale = req.Scale
	}
	if req.Seed != 0 {
		o.Seed = req.Seed
	}
	if len(req.Queries) > 0 {
		o.Queries = req.Queries
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	run := &experimentRun{ID: s.nextID, Exp: req.Exp, State: "running", Submitted: time.Now()}
	s.nextID++
	s.runs[run.ID] = run
	s.wg.Add(1)
	s.mu.Unlock()
	s.expSubmitted.Inc()

	go func() {
		defer s.wg.Done()
		var buf strings.Builder
		err := s.exec.Render(&buf, req.Exp, o)
		run.mu.Lock()
		run.Finished = time.Now()
		if err != nil {
			run.State, run.Error = "failed", err.Error()
		} else {
			run.State, run.Output = "done", buf.String()
		}
		run.mu.Unlock()
		if err != nil {
			s.expFailed.Inc()
		} else {
			s.expDone.Inc()
		}
	}()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]interface{}{"id": run.ID, "state": "running"})
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad experiment id")
		return
	}
	s.mu.Lock()
	run, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no experiment %d", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(run.snapshot())
}

// submitScenario renders one declarative spec synchronously: the body
// is a scenario JSON (1 MB cap), the response carries the canonical
// spec hash and the rendered report. Unlike /v1/experiments there is
// no id/poll lifecycle — the runner's result cache makes repeated
// specs cheap enough to answer inline, within the server's
// WriteTimeout budget for small scales.
func (s *server) submitScenario(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	sc, err := scenario.Decode(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := sc.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()

	// The render runs detached so a server-side timeout can answer 504
	// without abandoning the work: the pool finishes and caches the
	// result either way, making a retry of the same spec cheap. The
	// drain path waits on s.wg, so shutdown still sees it through.
	var buf strings.Builder
	done := make(chan error, 1)
	go func() {
		defer s.wg.Done()
		done <- s.exec.RenderScenario(&buf, *sc)
	}()
	var timeout <-chan time.Time
	if s.renderTimeout > 0 {
		t := time.NewTimer(s.renderTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case err := <-done:
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
	case <-timeout:
		httpError(w, http.StatusGatewayTimeout, fmt.Sprintf(
			"render exceeded %s; the computation continues and will be cached — retry, or submit via POST /v1/jobs",
			s.renderTimeout))
		return
	}
	label := experiments.ScenarioLabel(*sc)
	s.scRendered.With(label).Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]interface{}{
		"name":   sc.Name,
		"preset": label,
		"hash":   sc.Hash(),
		"report": buf.String(),
	})
}

// presets returns every preset spec as JSON — the machine-readable
// registry behind dssmem -list and the named experiments.
func (s *server) presets(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(scenario.Presets())
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// stats reports the operational state as JSON. Everything beyond the
// pool snapshot is derived from the metrics registry — the HTTP request
// total is summed from the same samples /metrics exposes.
func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	ps := s.exec.Pool().Stats()
	var served float64
	for _, f := range s.reg.Snapshot() {
		if f.Name == "dssmem_http_requests_total" {
			for _, smp := range f.Samples {
				served += smp.Value
			}
		}
	}
	// Cluster fabric view: worker/job/task states plus the peer blob
	// traffic, summed from the same samples /metrics exposes.
	peerFetch := map[string]float64{}
	for _, f := range s.reg.Snapshot() {
		if f.Name == "dssmem_blob_peer_fetch_total" {
			for _, smp := range f.Samples {
				peerFetch[smp.Labels["result"]] += smp.Value
			}
		}
	}
	recRecords, recTruncated := s.journal.Recovery()
	resp := map[string]interface{}{
		"pool":                  ps,
		"cache_hit_rate":        ps.HitRate(),
		"uptime_seconds":        time.Since(s.start).Seconds(),
		"requests_total":        served,
		"experiments_submitted": s.expSubmitted.Value(),
		"experiments_done":      s.expDone.Value(),
		"experiments_failed":    s.expFailed.Value(),
		"cluster": map[string]interface{}{
			"workers":    s.coord.Workers(),
			"jobs":       s.manager.Counts(),
			"tasks":      s.coord.Status().Tasks,
			"peer_fetch": peerFetch,
		},
		"wal": map[string]interface{}{
			"enabled":                  s.journal != nil,
			"recovery_records":         recRecords,
			"recovery_truncated_bytes": recTruncated,
			"appends":                  s.journal.Appends(),
		},
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// drain stops accepting submissions, waits for in-flight experiments
// and async jobs, then stops the cluster machinery. The journal closes
// last — the manager's terminal records and any remote workers'
// released leases (which arrive over HTTP before the listener stopped)
// must land in it first, so a drain-then-restart cycle requeues tasks
// with zero lease expirations.
func (s *server) drain() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	s.manager.Close()
	s.coord.Close()
	if err := s.journal.Close(); err != nil {
		log.Printf("wal close: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dssmemd: ")
	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("jobs", 0, "concurrent experiment workers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent result cache (empty = in-memory only)")
	traceDir := flag.String("trace-dir", "", "directory for captured reference-trace blobs (empty = traces stay in the result cache)")
	walDir := flag.String("wal-dir", "", "directory for the job/task write-ahead log; a restarted daemon replays it and resumes pre-crash jobs (empty = no durability)")
	walSync := flag.Duration("wal-sync", 0, "WAL group-commit window: appends within it share one fsync (0 = fsync every append)")
	join := flag.String("join", "", "coordinator URL to join as a worker (e.g. http://coord:8080)")
	advertise := flag.String("advertise", "", "URL this daemon is reachable at, reported to the coordinator")
	renderTimeout := flag.Duration("render-timeout", 0, "server-side bound on POST /v1/scenarios renders; exceeded renders answer 504 and finish into the cache (0 = unbounded)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	// Negative worker counts used to fall into the "<= 0 means default"
	// buckets silently; reject them as usage errors instead.
	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "dssmemd: -jobs must be >= 0 (got %d)\n", *jobs)
		os.Exit(2)
	}

	// A daemon should keep serving when its disk cache is unusable:
	// degrade to the memory tier and say so, instead of dying at boot.
	if *cacheDir != "" {
		if err := runner.ValidateCacheDir(*cacheDir); err != nil {
			log.Printf("disk cache disabled: %v", err)
			*cacheDir = ""
		}
	}
	if *traceDir != "" {
		if err := runner.ValidateCacheDir(*traceDir); err != nil {
			log.Printf("trace store disabled: %v", err)
			*traceDir = ""
		}
	}

	reg := metrics.New()
	reg.CollectGoRuntime()

	// The blob store unifies the cache tiers with the cluster fabric:
	// the configured dirs keep their legacy on-disk layout; with no dirs
	// an in-memory store still lets this daemon coordinate peers. The
	// pool reads through a fan — local first, then the joined
	// coordinator — while /v1/blobs always serves the local store only.
	var store blobstore.Store
	ld := blobstore.NewLocalDir()
	mounted := false
	if *cacheDir != "" {
		if err := ld.Mount(blobstore.NSResult, *cacheDir, ".gob"); err != nil {
			log.Printf("disk cache disabled: %v", err)
		} else {
			mounted = true
		}
	}
	if *traceDir != "" {
		if err := ld.Mount(blobstore.NSTrace, *traceDir, ".trace"); err != nil {
			log.Printf("trace store disabled: %v", err)
		} else {
			mounted = true
		}
	}
	if mounted {
		store = ld
	} else {
		store = blobstore.NewMem()
	}
	var peers func() []string
	if *join != "" {
		peer := strings.TrimRight(*join, "/")
		peers = func() []string { return []string{peer} }
	}
	fan := blobstore.NewFan(store, peers, reg)

	// Durability: open the WAL and replay it before anything serves.
	// Unlike the cache dirs, an unusable WAL dir is fatal — silently
	// dropping durability defeats the reason the operator asked for it.
	// The boot snapshot compacts the replayed log into one record so it
	// does not grow without bound across restarts.
	var journal *cluster.Journal
	var recovered *cluster.Recovered
	if *walDir != "" {
		var err error
		journal, recovered, err = cluster.OpenJournal(wal.Options{
			Dir: *walDir, SyncWindow: *walSync, Metrics: reg,
		})
		if err != nil {
			log.Fatalf("wal %s: %v", *walDir, err)
		}
		records, truncated := journal.Recovery()
		log.Printf("wal: replayed %d records (%d jobs, %d tasks, %d torn bytes truncated)",
			records, len(recovered.Jobs), len(recovered.Tasks), truncated)
		if err := journal.Snapshot(recovered); err != nil {
			log.Printf("wal compaction failed (log will keep growing): %v", err)
		}
	}

	exec := experiments.NewExecConfig(runner.Config{Workers: *jobs, Blobs: fan, Metrics: reg})
	s := newServer(exec, reg, store, *renderTimeout, journal, recovered)
	// Re-run whatever had not finished; the coordinator hands back the
	// recovered tasks' outcomes and the caches absorb the recompute.
	s.manager.Resume(recovered)

	var worker *cluster.Worker
	if *join != "" {
		name, _ := os.Hostname()
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator: strings.TrimRight(*join, "/"),
			Name:        name,
			Advertise:   *advertise,
			Exec:        exec,
			Blobs:       store,
			Logf:        log.Printf,
		})
		if err != nil {
			log.Fatalf("join %s: %v", *join, err)
		}
		worker = w
		log.Printf("joined coordinator %s", *join)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: s.handler(),
		// Slow-client protection. WriteTimeout must cover the longest
		// legitimate response: a 30s pprof CPU profile or a full trace.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("listening on %s (%d workers)", *addr, exec.Pool().Stats().Workers)

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown. The cluster worker drains first — it releases
	// any claimed-but-unfinished task back to the coordinator so the
	// work is reassigned immediately — then the HTTP server stops
	// accepting, in-flight experiments and jobs finish, and the pool's
	// workers drain.
	log.Print("shutting down: draining in-flight experiments")
	if worker != nil {
		worker.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	s.drain()
	exec.Close()
	log.Print("drained; bye")
}
