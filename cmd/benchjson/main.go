// Command benchjson converts `go test -bench` output into a stable JSON
// snapshot, so benchmark numbers can be committed and diffed across PRs
// without external tooling.
//
//	go test -run NONE -bench . -benchmem ./... | benchjson -o BENCH.json
//	go test -run NONE -bench . -benchmem ./... | benchjson -diff BENCH_pr2.json
//
// Each benchmark line becomes one object keyed by its name (with the
// -cpu suffix stripped), carrying every reported metric — ns/op, B/op,
// allocs/op, and any custom b.ReportMetric units. Non-benchmark lines
// (pkg headers, PASS/ok) are ignored, so raw output can be piped in
// directly or via a saved file. The snapshot also records a host
// fingerprint: the CPU model from the output's "cpu:" header, and the
// CPU count, GOMAXPROCS and Go version of the host converting it.
//
// With -diff BASELINE the run is instead compared against a committed
// snapshot: every benchmark present in both is reported with its ns/op
// delta, and the exit status is 1 when any delta exceeds -max-regress
// percent (default 10). Benchmarks only on one side are listed but
// never fail the comparison, so adding or retiring a benchmark doesn't
// break the gate. Both snapshots' host fingerprints are printed, with
// a "hosts differ" line when both are recorded and differ; the gate
// itself does not look at them. -only RE restricts both sides to
// benchmark names matching the regexp, so a subset of benchmarks (say,
// the replay fast path) can be gated strictly while the rest stay
// advisory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// parse reads `go test -bench` output: the benchmark lines, and the CPU
// model from the "cpu:" header when the output has one.
func parse(r io.Reader) (out []result, cpu string, err error) {
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			// Strip the GOMAXPROCS suffix: names stay stable across hosts.
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		res := result{Name: name, Package: pkg, Iterations: iters,
			Metrics: make(map[string]float64, (len(f)-2)/2)}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, "", fmt.Errorf("bad metric value in %q: %v", line, err)
			}
			res.Metrics[f[i+1]] = v
		}
		out = append(out, res)
	}
	return out, cpu, sc.Err()
}

// filter keeps only results whose name matches re (nil keeps all) and
// collapses duplicate names to the last occurrence — when a run
// re-measures a benchmark family at a higher iteration count, the
// re-measurement wins.
func filter(rs []result, re *regexp.Regexp) []result {
	var out []result
	idx := make(map[string]int, len(rs))
	for _, r := range rs {
		if re != nil && !re.MatchString(r.Name) {
			continue
		}
		if i, ok := idx[r.Name]; ok {
			out[i] = r
			continue
		}
		idx[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

// hostInfo fingerprints the host a snapshot was measured on, so a diff
// can tell a code change from a hardware change.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// thisHost fingerprints the running host; cpu is the model the
// benchmark output reported.
func thisHost(cpu string) *hostInfo {
	return &hostInfo{CPU: cpu, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

func (h *hostInfo) String() string {
	if h == nil {
		return "not recorded"
	}
	cpu := h.CPU
	if cpu == "" {
		cpu = "unknown CPU"
	}
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS=%d, %s", cpu, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

// snapshot is the file format this tool writes and -diff reads back.
// Snapshots written before fingerprints were recorded have no host.
type snapshot struct {
	Host       *hostInfo `json:"host,omitempty"`
	Benchmarks []result  `json:"benchmarks"`
}

// diffHosts prints both fingerprints, and flags a comparison across
// different hosts: its deltas measure the hardware as well as the code.
func diffHosts(w io.Writer, baseline, current *hostInfo) {
	fmt.Fprintf(w, "baseline host: %s\n", baseline)
	fmt.Fprintf(w, "this host:     %s\n", current)
	if baseline != nil && current != nil && *baseline != *current {
		fmt.Fprintln(w, "hosts differ: ns/op deltas include the hardware difference")
	}
}

// diff compares current against baseline on ns/op and writes one line
// per benchmark. It returns the names whose regression exceeds maxPct.
func diff(w io.Writer, baseline, current []result, maxPct float64) []string {
	base := make(map[string]result, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	seen := make(map[string]bool, len(current))
	var failed []string
	for _, r := range current {
		seen[r.Name] = true
		old, ok := base[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-60s new benchmark, no baseline\n", r.Name)
			continue
		}
		on, oldOK := old.Metrics["ns/op"]
		nn, newOK := r.Metrics["ns/op"]
		if !oldOK || !newOK || on == 0 {
			fmt.Fprintf(w, "%-60s no ns/op to compare\n", r.Name)
			continue
		}
		pct := 100 * (nn - on) / on
		verdict := "ok"
		if pct > maxPct {
			verdict = "REGRESSED"
			failed = append(failed, r.Name)
		}
		fmt.Fprintf(w, "%-60s %14.0f -> %14.0f ns/op  %+7.1f%%  %s\n", r.Name, on, nn, pct, verdict)
	}
	for _, r := range baseline {
		if !seen[r.Name] {
			fmt.Fprintf(w, "%-60s missing from this run (baseline only)\n", r.Name)
		}
	}
	return failed
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	outPath := flag.String("o", "", "output file (default stdout)")
	diffPath := flag.String("diff", "", "compare against this baseline snapshot instead of emitting JSON")
	maxRegress := flag.Float64("max-regress", 10, "with -diff, fail when ns/op regresses by more than this percent")
	only := flag.String("only", "", "restrict to benchmark names matching this regexp (applies to both sides of -diff)")
	flag.Parse()

	var keep *regexp.Regexp
	if *only != "" {
		var err error
		if keep, err = regexp.Compile(*only); err != nil {
			log.Fatalf("-only: %v", err)
		}
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		var readers []io.Reader
		for _, p := range flag.Args() {
			f, err := os.Open(p)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			readers = append(readers, f)
		}
		in = io.MultiReader(readers...)
	}

	results, cpu, err := parse(in)
	if err != nil {
		log.Fatal(err)
	}
	results = filter(results, keep)
	if len(results) == 0 {
		log.Fatal("no benchmark lines found in input")
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Package != results[j].Package {
			return results[i].Package < results[j].Package
		}
		return results[i].Name < results[j].Name
	})

	if *diffPath != "" {
		raw, err := os.ReadFile(*diffPath)
		if err != nil {
			log.Fatal(err)
		}
		var snap snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			log.Fatalf("%s: %v", *diffPath, err)
		}
		diffHosts(os.Stdout, snap.Host, thisHost(cpu))
		failed := diff(os.Stdout, filter(snap.Benchmarks, keep), results, *maxRegress)
		if len(failed) > 0 {
			log.Fatalf("%d benchmark(s) regressed more than %.0f%% vs %s: %s",
				len(failed), *maxRegress, *diffPath, strings.Join(failed, ", "))
		}
		fmt.Printf("no ns/op regression beyond %.0f%% vs %s\n", *maxRegress, *diffPath)
		return
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snapshot{Host: thisHost(cpu), Benchmarks: results}); err != nil {
		log.Fatal(err)
	}
}
