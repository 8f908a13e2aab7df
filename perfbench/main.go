// Command perfbench is the repository's benchmark. One invocation runs
// one named workload with one seed in a fresh process, checks every
// output, and prints its metrics by name with their units:
//
//	perfbench -workload paper_all|client_streams|daemon_jobs -seed N -seconds S -trace 0|1
//	perfbench -compare A.json B.json
//
// With -trace 0 the run is timed with tracing off and reports the
// end-to-end metrics; with -trace 1 it records spans at every layer
// boundary it calls into and reports the per-layer metrics, each
// layer's self time, and the tracing overhead. The last line of
// standard output is the result object; the line before it is the full
// record (host fingerprint, settings, every metric), also written under
// .bench_build/results. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

var workloads = []string{"paper_all", "client_streams", "daemon_jobs"}

// Where run.sh puts the daemon it builds, and where runs leave their
// records and spans.
var (
	daemonBin  = filepath.Join(".bench_build", "dssmemd")
	resultsDir = filepath.Join(".bench_build", "results")
)

// setupRepeats is how many times a run measures its set-up; it reports
// the median. Set-up takes tens of milliseconds, so many repeats are
// cheap and keep the median steady.
const setupRepeats = 15

// nominalSeconds is how long one iteration (for daemon_jobs, one
// round) of each workload takes on the baseline host. A run makes
// round(seconds / nominal) of them, at least one, so the work a run does
// depends only on its arguments, never on how fast the host happens to
// be: memory metrics then compare like with like.
var nominalSeconds = map[string]float64{"paper_all": 15, "client_streams": 7.5, "daemon_jobs": 5}

func iterations(w string, budget time.Duration) int {
	return max(1, int(math.Round(budget.Seconds()/nominalSeconds[w])))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a timed run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"heap_live_mb", "MB"},
}

// layerMetrics are the metrics a traced run reports. Every workload
// reports all of them; a layer the workload does not reach reads 0.
func layerMetrics() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"core.new_system_s", "s"}, {"core.systems_built", "count"},
		{"core.capture_s", "s"}, {"core.capture_events", "count"}, {"core.capture_ns_per_event", "ns"},
		{"core.replay_s", "s"}, {"core.replay_events", "count"}, {"core.replay_ns_per_event", "ns"},
		{"trace.encode_s", "s"}, {"trace.decode_s", "s"}, {"trace.blob_bytes", "bytes"}, {"trace.bytes_per_event", "bytes"},
		{"runner.jobs_submitted", "count"}, {"runner.jobs_executed", "count"}, {"runner.busy_s", "s"},
		{"runner.utilization", "ratio"}, {"runner.queue_wait_p50_s", "s"}, {"runner.queue_wait_p90_s", "s"},
		{"runner.critical_path_s", "s"}, {"runner.cache_hit_ratio", "ratio"},
		{"cluster.job_queue_p50_s", "s"}, {"cluster.job_run_p50_s", "s"},
		{"blobstore.gets", "count"}, {"blobstore.get_bytes", "bytes"}, {"blobstore.get_misses", "count"},
		{"blobstore.puts", "count"}, {"blobstore.put_bytes", "bytes"},
		{"blobstore.get_s", "s"}, {"blobstore.put_s", "s"},
		{"wal.appends", "count"}, {"wal.fsyncs", "count"}, {"wal.bytes", "bytes"},
		{"dssmemd.submit_p50_s", "s"}, {"dssmemd.report_p50_s", "s"},
		{"go.alloc_bytes", "bytes"}, {"go.gc_cycles", "count"}, {"go.gc_pause_s", "s"},
		{"tracing.overhead_s", "s"}, {"tracing.overhead_ratio", "ratio"},
		{"experiments.render_s.scenario", "s"},
	}
	for _, mode := range jobModes {
		out = append(out, struct{ name, unit string }{"runner.run_s." + mode, "s"},
			struct{ name, unit string }{"runner.queue_s." + mode, "s"})
	}
	for _, name := range experiments.KnownExperiments {
		out = append(out, struct{ name, unit string }{"experiments.render_s." + name, "s"})
	}
	for _, layer := range spanLayers {
		out = append(out, struct{ name, unit string }{"self_s." + layer, "s"})
	}
	return out
}

// spanLayers are the layers whose self time a traced run reports. The
// runner's queue spans are waiting, not work; their totals are the
// runner.queue_s metrics.
var spanLayers = []string{"bench", "experiments", "runner", "core", "trace", "blobstore", "dssmemd"}

// Fingerprint identifies the host and build a result was measured on.
type Fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

// Settings are the inputs of a run.
type Settings struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Scale    float64 `json:"scale"`
	Workers  int     `json:"workers"`
	Flags    string  `json:"flags"`
}

// Record is the full result of one run.
type Record struct {
	Fingerprint Fingerprint        `json:"fingerprint"`
	Settings    Settings           `json:"settings"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]metric  `json:"metrics"`
	Extra       map[string]float64 `json:"extra"`
	Digest      string             `json:"digest"`
	Problems    []string           `json:"problems,omitempty"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	metrics   map[string]float64 // end-to-end, or per-layer when traced
	extra     map[string]float64
	digest    string // of the reports on the workload's first pass
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 12345, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	compare := flag.Bool("compare", false, "compare two records given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two record files")
		}
		if err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if flag.NArg() > 0 || !slices.Contains(workloads, *workload) || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fatalf("usage: perfbench -workload %s -seed N -seconds S -trace 0|1", strings.Join(workloads, "|"))
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	set := Settings{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceFlag,
		Scale: benchScale, Workers: runtime.GOMAXPROCS(0), Flags: "defaults"}
	budget := time.Duration(*seconds * float64(time.Second))
	stem := filepath.Join(resultsDir, fmt.Sprintf("%s-%d-trace%d", *workload, *seed, *traceFlag))

	var out *outcome
	var err error
	switch *workload {
	case "daemon_jobs":
		set.Flags = "-jobs 0 -wal-dir <tmp>"
		out, err = runDaemon(daemonBin, *seed, budget, *traceFlag == 1, stem)
	default:
		out, err = runInproc(*workload, *seed, budget, *traceFlag == 1, stem)
	}
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}

	rec := Record{Fingerprint: fingerprint(), Settings: set, Attempted: out.attempted,
		Failed: out.failed, Metrics: map[string]metric{}, Extra: out.extra, Digest: out.digest, Problems: out.problems}
	rec.Correct = out.failed == 0
	units := endToEnd
	if *traceFlag == 1 {
		units = layerMetrics()
	}
	for _, m := range units {
		rec.Metrics[m.name] = metric{Value: out.metrics[m.name], Unit: m.unit}
	}
	full, err := json.Marshal(rec)
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(stem+".json", full, 0o644); err != nil {
		fatalf("%v", err)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	fmt.Println(string(full))
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(last))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runInproc runs paper_all or client_streams. A timed run measures its
// set-up setupRepeats times, then makes its iterations (each a fresh
// Exec over the same inputs) and reports their median. A
// traced run makes one untraced and one traced iteration and the layer
// probe.
func runInproc(w string, seed uint64, budget time.Duration, traced bool, stem string) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, extra: map[string]float64{}}
	want, recorded := recordedDigests[w][strconv.FormatUint(seed, 10)]
	var iters []*inprocIteration
	check := func(it *inprocIteration) {
		out.attempted += it.renders
		for _, e := range it.errs {
			out.fail("iteration %d: %s", len(iters), e)
		}
		if len(iters) > it.batch && it.digest != iters[it.batch].digest {
			out.fail("iteration %d: report digest %s differs from iteration %d's %s",
				len(iters), it.digest, it.batch, iters[it.batch].digest)
		}
		iters = append(iters, it)
	}

	if traced {
		it := runIteration(w, seed, 0, nil, nil)
		check(it)
		t := newTracer(fmt.Sprintf("%s-%d-%d", w, seed, time.Now().UnixNano()))
		tit := runIteration(w, seed, 0, t, out.metrics)
		check(tit)
		spans := t.Spans()
		layerSums(spans, out.metrics)
		if err := probeLayers(out, t.RunID, stem, func(p *probe) error { return probeInproc(w, seed, p) }); err != nil {
			return nil, err
		}
		runnerLayers(tit, spans, out.metrics)
		if tit.blobs != nil {
			b := tit.blobs
			out.metrics["blobstore.gets"] = float64(b.gets.Load())
			out.metrics["blobstore.get_bytes"] = float64(b.getBytes.Load())
			out.metrics["blobstore.get_misses"] = float64(b.getMisses.Load())
			out.metrics["blobstore.puts"] = float64(b.puts.Load())
			out.metrics["blobstore.put_bytes"] = float64(b.putBytes.Load())
		}
		out.metrics["go.alloc_bytes"] = float64(tit.goUse.alloc)
		out.metrics["go.gc_cycles"] = float64(tit.goUse.gcs)
		out.metrics["go.gc_pause_s"] = tit.goUse.pause.Seconds()
		out.metrics["tracing.overhead_s"] = (tit.wall - it.wall).Seconds()
		out.metrics["tracing.overhead_ratio"] = tit.wall.Seconds()/it.wall.Seconds() - 1
		if err := t.WriteFile(stem + ".spans.json"); err != nil {
			return nil, err
		}
	} else {
		var setups []float64
		for i := 0; i < setupRepeats; i++ {
			d, err := setupInproc(w, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		out.metrics["setup_s"] = median(setups)
		cpu0 := readCPUTimes()
		for i := 0; i < iterations(w, budget); i++ {
			check(runIteration(w, seed, i%batches(w), nil, nil))
		}
		var walls, cpus []float64
		for _, it := range iters {
			walls = append(walls, it.wall.Seconds())
			cpus = append(cpus, it.cpu.Seconds())
		}
		out.extra["cpu_s"] = median(cpus)
		out.metrics["wall_s"] = median(walls)
		out.metrics["heap_live_mb"] = iters[len(iters)-1].heapLive
		out.metrics["peak_rss_mb"] = peakRSSMB("self")
		out.extra["iterations"] = float64(len(iters))
		out.extra["host.steal_ratio"] = stealRatio(cpu0)
		out.extra["wall_s_min"] = percentile(walls, 0)
		out.extra["wall_s_max"] = percentile(walls, 1)
	}

	first := iters[0]
	out.extra["runner.jobs_submitted"] = float64(first.jobs.Submitted)
	out.extra["runner.jobs_completed"] = float64(first.jobs.Completed)
	out.extra["runner.cache_hits"] = float64(first.jobs.CacheHits)
	if w == "paper_all" {
		out.extra["scorecard_pass"] = float64(first.scorePass)
		out.extra["scorecard_claims"] = float64(first.scoreAll)
	}
	counts := map[string]int64{
		"jobs_submitted": first.jobs.Submitted, "jobs_completed": first.jobs.Completed,
		"cache_hits": first.jobs.CacheHits,
	}
	for _, mode := range jobModes {
		counts["executed_"+mode] = first.modes[mode]
		out.extra["runner.executed."+mode] = float64(first.modes[mode])
	}
	if w == "paper_all" {
		counts["scorecard_pass"] = int64(first.scorePass)
	}
	if traced {
		counts["capture_events"] = int64(out.metrics["core.capture_events"])
	}
	out.digest = first.digest
	checkRecorded(out, recorded, want, first.digest, counts)
	out.extra["failed_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	return out, nil
}

// checkRecorded compares a run on a recorded seed with its recorded
// digest and exact counts; each mismatch is one failed check.
func checkRecorded(out *outcome, recorded bool, want digestRecord, digest string, counts map[string]int64) {
	if !recorded {
		return
	}
	out.attempted++
	if digest != want.Digest {
		out.fail("report digest %s, recorded %s", digest, want.Digest)
	}
	names := make([]string, 0, len(want.Counts))
	for name := range want.Counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got, ok := counts[name]
		if !ok {
			continue // measured by traced runs only
		}
		out.attempted++
		if got != want.Counts[name] {
			out.fail("%s = %d, recorded %d", name, got, want.Counts[name])
		}
	}
}

// cpuTimes are the host's cumulative CPU ticks from /proc/stat.
type cpuTimes struct{ steal, total uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
		if i < 8 {
			t.total += v
		}
	}
	return t
}

// stealRatio is the share of host CPU time the hypervisor took from
// this machine since t0: the usual cause of run-to-run noise on a
// virtual host, reported so a noisy run can be told from a slow one.
func stealRatio(t0 cpuTimes) float64 {
	t := readCPUTimes()
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) float64 {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// fingerprint identifies this host and build.
func fingerprint() Fingerprint {
	fp := Fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Revision: revision()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fp
}

// revision is the git revision of the checkout when it is a git
// repository, else the source hash run.sh computed over the tree.
func revision() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile(filepath.Join(".bench_build", "source.sha256")); err == nil {
		return "src-" + strings.TrimSpace(string(b))[:12]
	}
	return "unknown"
}

// compareRecords prints each metric of two records side by side. It
// refuses records from different hosts or settings: their numbers are
// not comparable.
func compareRecords(w *os.File, pathA, pathB string) error {
	var a, b Record
	for _, x := range []struct {
		path string
		rec  *Record
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.rec); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	fa, fb := a.Fingerprint, b.Fingerprint
	fa.Revision, fb.Revision = "", ""
	if fa != fb {
		return fmt.Errorf("host fingerprints differ: %+v vs %+v", a.Fingerprint, b.Fingerprint)
	}
	if a.Settings != b.Settings {
		return errors.New("settings differ: " + fmt.Sprintf("%+v vs %+v", a.Settings, b.Settings))
	}
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %14s %9s   (%s -> %s)\n", "metric", "A", "B", "B/A", a.Fingerprint.Revision, b.Fingerprint.Revision)
	for _, name := range names {
		va, vb := a.Metrics[name].Value, b.Metrics[name].Value
		ratio := "-"
		if va != 0 {
			ratio = fmt.Sprintf("%.3f", vb/va)
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %9s %s\n", name, va, vb, ratio, a.Metrics[name].Unit)
	}
	return nil
}
