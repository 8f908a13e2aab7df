package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon_jobs drives a single-node dssmemd over loopback: a closed loop
// of nproc clients, each submitting its next job with POST /v1/jobs
// only after its previous report arrived. The daemon runs with its
// default flags, in-memory blobs and a write-ahead log in a temporary
// directory under .bench_build.

// daemon is one running dssmemd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startDaemon launches dssmemd and returns once /v1/healthz answers.
func startDaemon(bin, walDir string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	start := time.Now()
	cmd := exec.Command(bin, "-addr", addr, "-wal-dir", walDir)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	// A benchmark killed from outside must not leave its daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dssmemd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	for {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("dssmemd exited before answering /v1/healthz")
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("dssmemd did not answer /v1/healthz within 30s")
		}
	}
}

// stop asks the daemon to drain and waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// jobTiming is one client job's observed timeline.
type jobTiming struct {
	latency, submit, report      time.Duration
	serverQueue, serverRun       time.Duration
	reportDigest, wantHash, hash string
	state                        string
	err                          error
}

// client talks to one daemon.
type client struct {
	base string
	http *http.Client
}

// runJob submits one spec and waits for its report.
func (c *client) runJob(j daemonJob, t *Tracer, parent int) jobTiming {
	out := jobTiming{wantHash: j.Spec.Hash()}
	body, err := json.Marshal(j.Spec)
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	var sub struct {
		JobID string `json:"job_id"`
	}
	if out.err = c.do("POST", "/v1/jobs", body, http.StatusAccepted, &sub); out.err != nil {
		return out
	}
	t1 := time.Now()
	if out.err = c.awaitState(sub.JobID); out.err != nil {
		return out
	}
	t2 := time.Now()
	var rep struct {
		Hash   string `json:"hash"`
		Report string `json:"report"`
	}
	if out.err = c.do("GET", "/v1/jobs/"+sub.JobID+"/report", nil, http.StatusOK, &rep); out.err != nil {
		return out
	}
	t3 := time.Now()
	var st struct {
		State     string    `json:"state"`
		Submitted time.Time `json:"submitted"`
		Finished  time.Time `json:"finished"`
	}
	if out.err = c.do("GET", "/v1/jobs/"+sub.JobID, nil, http.StatusOK, &st); out.err != nil {
		return out
	}
	out.latency, out.submit, out.report = t3.Sub(t0), t1.Sub(t0), t3.Sub(t2)
	out.serverQueue, out.serverRun = st.Submitted.Sub(t0), st.Finished.Sub(st.Submitted)
	out.state, out.hash = st.State, rep.Hash
	out.reportDigest = fmt.Sprintf("%x", sha256.Sum256([]byte(rep.Report)))
	if t != nil {
		id := t.Add(Span{Parent: parent, Layer: "bench", Name: "client." + j.Kind, Start: t.since(t0), End: t.since(t3)})
		t.Add(Span{Parent: id, Layer: "dssmemd", Name: "dssmemd.submit", Start: t.since(t0), End: t.since(t1)})
		t.Add(Span{Parent: id, Layer: "dssmemd", Name: "dssmemd.wait", Start: t.since(t1), End: t.since(t2)})
		t.Add(Span{Parent: id, Layer: "dssmemd", Name: "dssmemd.report", Start: t.since(t2), End: t.since(t3)})
	}
	return out
}

// do makes one API call and decodes its JSON answer.
func (c *client) do(method, path string, body []byte, want int, into interface{}) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, into)
}

// awaitState follows the job's event stream until its terminal state
// event.
func (c *client) awaitState(id string) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: state" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events of %s ended without a state", id)
}

// roundResult is one round of the closed loop.
type roundResult struct {
	wall time.Duration
	jobs []jobTiming
}

// runRound runs one round's jobs on nclients closed-loop clients: each
// client takes the round's next job as soon as its previous one
// returned.
func runRound(c *client, jobs []daemonJob, nclients int, t *Tracer) roundResult {
	res := roundResult{jobs: make([]jobTiming, len(jobs))}
	var mu sync.Mutex
	next := 0
	var root int
	start := time.Now()
	if t != nil {
		root = t.Add(Span{Layer: "bench", Name: "round", Start: t.since(start)})
	}
	var wg sync.WaitGroup
	for i := 0; i < nclients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(jobs) {
					return
				}
				res.jobs[k] = c.runJob(jobs[k], t, root)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	if t != nil {
		t.Finish(root, start.Add(res.wall))
	}
	return res
}

// checkRound checks every job of a round: it finished, its report
// carries the submitted spec's hash, and its report equals every earlier
// report of the same spec (reports maps spec hash to report digest). It
// adds the round's reports to h in job order.
func checkRound(out *outcome, r int, res roundResult, reports map[string]string, h io.Writer) {
	for k, jt := range res.jobs {
		out.attempted++
		switch {
		case jt.err != nil:
			out.fail("round %d job %d: %v", r, k, jt.err)
		case jt.state != "done":
			out.fail("round %d job %d: state %s", r, k, jt.state)
		case jt.hash != jt.wantHash:
			out.fail("round %d job %d: report for spec %s, submitted %s", r, k, jt.hash, jt.wantHash)
		case reports[jt.hash] != "" && reports[jt.hash] != jt.reportDigest:
			out.fail("round %d job %d: report of spec %s differs from an earlier one", r, k, jt.hash)
		default:
			reports[jt.hash] = jt.reportDigest
		}
		fmt.Fprintf(h, "%s %s\n", jt.hash, jt.reportDigest)
	}
}

// promSample sums the samples of one family in a Prometheus text
// exposition, keeping only those whose labels contain label ("" keeps
// all).
func promSample(text, name, label string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || !(strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "{")) || !strings.Contains(rest, label) {
			continue
		}
		fields := strings.Fields(rest)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func (c *client) text(path string) (string, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(b), nil
}

// memStat reads one runtime.MemStats field of the daemon from the
// header of its heap profile, after a forced GC when gc is set.
func (c *client) memStat(field string, gc bool) (float64, error) {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	text, err := c.text(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# "+field+" = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("no %s in the daemon's heap profile", field)
}

// daemonCounters maps per-layer metrics to the daemon's own /metrics
// families (and label filters) whose growth over the run they report.
var daemonCounters = []struct{ metric, family, label string }{
	{"wal.appends", "dssmem_wal_appends_total", ""},
	{"wal.fsyncs", "dssmem_wal_fsyncs_total", ""},
	{"wal.bytes", "dssmem_wal_bytes_total", ""},
	{"go.gc_cycles", "go_gc_cycles_total", ""},
	{"go.gc_pause_s", "go_gc_pause_seconds_total", ""},
	{"runner.jobs_submitted", "dssmem_runner_jobs_submitted_total", ""},
	{"runner.jobs_executed", "dssmem_runner_jobs_started_total", ""},
	{"runner.busy_s", "dssmem_runner_busy_seconds_total", ""},
	// Blob gets are the cache tiers the store backs: result lookups
	// below memory, and trace reads.
	{"blobstore.gets", "dssmem_cache_hits_total", `tier="disk"`},
	{"blobstore.gets", "dssmem_cache_misses_total", `tier="disk"`},
	{"blobstore.gets", "dssmem_cache_hits_total", `tier="trace"`},
	{"blobstore.gets", "dssmem_cache_misses_total", `tier="trace"`},
	{"blobstore.get_misses", "dssmem_cache_misses_total", `tier="disk"`},
	{"blobstore.get_misses", "dssmem_cache_misses_total", `tier="trace"`},
	{"blobstore.get_bytes", "dssmem_trace_streamed_bytes", ""},
}

func runDaemon(bin string, seed uint64, budget time.Duration, traced bool, stem string) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, extra: map[string]float64{}}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("dssmemd binary: %w", err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(".bench_build"), "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up: start the daemon setupRepeats times, each on a fresh WAL,
	// and keep the last one running for the workload.
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		d, took, err = startDaemon(bin, filepath.Join(tmp, "wal"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()
	out.metrics["setup_s"] = median(setups)

	nclients := nproc()
	c := &client{base: d.base, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * nclients}}}
	defer c.http.CloseIdleConnections()

	want, recorded := recordedDigests["daemon_jobs"][strconv.FormatUint(seed, 10)]
	var t *Tracer
	if traced {
		t = newTracer(fmt.Sprintf("daemon_jobs-%d-%d", seed, time.Now().UnixNano()))
	}
	initial, err := c.text("/metrics")
	if err != nil {
		return nil, err
	}
	// The warm-up round is checked but not timed. A traced run then
	// alternates untraced and traced rounds, so the rounds' difference
	// is the tracing overhead.
	n := iterations("daemon_jobs", budget)
	if traced {
		n = max(n, 2)
	}
	rounds := daemonRounds(seed, n)
	var plain, tracedWalls, walls, lats []float64
	var all []jobTiming
	reports := map[string]string{}
	h := sha256.New()
	var start time.Time
	var cpu0 cpuTimes
	var executed int64
	var before string // /metrics as the measured rounds begin
	var blobsBefore, blobBytesBefore, allocBefore float64
	for r, jobs := range rounds {
		if r == 1 {
			if before, err = c.text("/metrics"); err != nil {
				return nil, err
			}
			if traced {
				if blobsBefore, blobBytesBefore, err = c.blobTotals(); err != nil {
					return nil, err
				}
				if allocBefore, err = c.memStat("TotalAlloc", false); err != nil {
					return nil, err
				}
			}
			start, cpu0 = time.Now(), readCPUTimes()
		}
		var rt *Tracer
		if traced && r%2 == 0 && r > 0 {
			rt = t
		}
		res := runRound(c, jobs, nclients, rt)
		checkRound(out, r, res, reports, h)
		if r == 1 {
			// The recorded digest and count cover the warm-up and the
			// first measured round, so they do not depend on -seconds.
			out.digest = fmt.Sprintf("%x", h.Sum(nil))
			now, err := c.text("/metrics")
			if err != nil {
				return nil, err
			}
			executed = int64(promSample(now, "dssmem_runner_jobs_started_total", "") -
				promSample(initial, "dssmem_runner_jobs_started_total", ""))
		}
		switch {
		case r == 0:
			out.extra["warmup_s"] = res.wall.Seconds()
			continue
		case rt != nil:
			tracedWalls = append(tracedWalls, res.wall.Seconds())
			all = append(all, res.jobs...)
		default:
			plain = append(plain, res.wall.Seconds())
			if !traced {
				all = append(all, res.jobs...)
			}
		}
		walls = append(walls, res.wall.Seconds())
		for _, jt := range res.jobs {
			lats = append(lats, jt.latency.Seconds())
		}
	}
	measured := time.Since(start)
	out.extra["host.steal_ratio"] = stealRatio(cpu0)
	after, err := c.text("/metrics")
	if err != nil {
		return nil, err
	}
	out.extra["runner.executed_first_round"] = float64(executed)
	counts := map[string]int64{"jobs_executed": executed}

	if traced {
		var submits, reports, queues, runs []float64
		for _, jt := range all {
			submits = append(submits, jt.submit.Seconds())
			reports = append(reports, jt.report.Seconds())
			queues = append(queues, jt.serverQueue.Seconds())
			runs = append(runs, jt.serverRun.Seconds())
		}
		m := out.metrics
		m["dssmemd.submit_p50_s"] = percentile(submits, 0.5)
		m["dssmemd.report_p50_s"] = percentile(reports, 0.5)
		m["cluster.job_queue_p50_s"] = percentile(queues, 0.5)
		m["cluster.job_run_p50_s"] = percentile(runs, 0.5)
		delta := func(family, label string) float64 {
			return promSample(after, family, label) - promSample(before, family, label)
		}
		for _, dc := range daemonCounters {
			m[dc.metric] += delta(dc.family, dc.label)
		}
		m["runner.utilization"] = m["runner.busy_s"] / (promSample(after, "dssmem_runner_workers", "") * measured.Seconds())
		hits, misses := delta("dssmem_cache_hits_total", `tier="memory"`), delta("dssmem_cache_misses_total", `tier="memory"`)
		if hits+misses > 0 {
			m["runner.cache_hit_ratio"] = hits / (hits + misses)
		}
		blobs, blobBytes, err := c.blobTotals()
		if err != nil {
			return nil, err
		}
		m["blobstore.puts"], m["blobstore.put_bytes"] = blobs-blobsBefore, blobBytes-blobBytesBefore
		m["tracing.overhead_s"] = median(tracedWalls) - median(plain)
		m["tracing.overhead_ratio"] = median(tracedWalls)/median(plain) - 1
		layerSums(t.Spans(), m)
		// The layer probe runs core and trace on the first measured
		// round's fresh spec.
		fresh := rounds[1][0].Spec
		if err := probeLayers(out, t.RunID, stem, func(p *probe) error {
			return p.coldQueries(fresh, fresh.Workload.Queries)
		}); err != nil {
			return nil, err
		}
		if err := t.WriteFile(stem + ".spans.json"); err != nil {
			return nil, err
		}
		counts["capture_events"] = int64(m["core.capture_events"])
	} else {
		out.metrics["wall_s"] = median(walls)
		out.extra["job_latency_p50_s"] = percentile(lats, 0.5)
		out.extra["job_latency_p90_s"] = percentile(lats, 0.9)
		out.extra["jobs_per_s"] = float64(len(lats)) / measured.Seconds()
		out.extra["rounds"] = float64(len(walls))
		out.extra["wall_s_min"] = percentile(walls, 0)
		out.extra["wall_s_max"] = percentile(walls, 1)
		out.extra["job_latency_samples"] = float64(len(lats))
		out.extra["job_latency_tail_p"] = reportedTail(len(lats))
		if tail := reportedTail(len(lats)); tail > 0 {
			out.extra["job_latency_tail_s"] = percentile(lats, tail)
		}
	}
	if traced {
		alloc, err := c.memStat("TotalAlloc", false)
		if err != nil {
			return nil, err
		}
		out.metrics["go.alloc_bytes"] = alloc - allocBefore
	} else {
		heap, err := c.memStat("HeapAlloc", true)
		if err != nil {
			return nil, err
		}
		out.metrics["heap_live_mb"] = heap / (1 << 20)
		out.metrics["peak_rss_mb"] = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	}
	checkRecorded(out, recorded, want, out.digest, counts)
	out.extra["failed_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	return out, nil
}

// blobTotals lists the daemon's blob store and returns how many blobs
// were put there and their bytes. Keys are content addresses, so each
// distinct blob is one effective put.
func (c *client) blobTotals() (float64, float64, error) {
	var n, size float64
	for _, ns := range []string{"result", "trace"} {
		after := ""
		for {
			var page []struct {
				Key  string `json:"key"`
				Size int64  `json:"size"`
			}
			if err := c.do("GET", "/v1/blobs/"+ns+"?after="+after+"&limit=1000", nil, http.StatusOK, &page); err != nil {
				return 0, 0, err
			}
			for _, b := range page {
				n++
				size += float64(b.Size)
			}
			if len(page) < 1000 {
				break
			}
			after = page[len(page)-1].Key
		}
	}
	return n, size, nil
}

// nproc is the closed loop's client count: one per host core.
func nproc() int { return runtime.NumCPU() }
