package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkFig6Breakdown-8   	       1	1709234209 ns/op	        56.30 Q3_busy%	 4096 B/op	 1015622 allocs/op
pkg: repro/internal/machine
BenchmarkReadHit-8   	195000000	         6.139 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/machine	2.1s
`
	got, cpu, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor" {
		t.Errorf("cpu = %q", cpu)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want 2", len(got))
	}
	fig6 := got[0]
	if fig6.Name != "BenchmarkFig6Breakdown" || fig6.Package != "repro" || fig6.Iterations != 1 {
		t.Errorf("fig6 header = %+v", fig6)
	}
	if fig6.Metrics["ns/op"] != 1709234209 || fig6.Metrics["allocs/op"] != 1015622 ||
		fig6.Metrics["Q3_busy%"] != 56.30 {
		t.Errorf("fig6 metrics = %v", fig6.Metrics)
	}
	hit := got[1]
	if hit.Package != "repro/internal/machine" || hit.Metrics["ns/op"] != 6.139 ||
		hit.Metrics["allocs/op"] != 0 {
		t.Errorf("readhit = %+v", hit)
	}
}

func res(name string, nsop float64) result {
	return result{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": nsop}}
}

func TestDiffFlagsRegressions(t *testing.T) {
	baseline := []result{
		res("BenchmarkA", 1000),
		res("BenchmarkB", 1000),
		res("BenchmarkGone", 500),
	}
	current := []result{
		res("BenchmarkA", 1050), // +5%: within the gate
		res("BenchmarkB", 1200), // +20%: regression
		res("BenchmarkNew", 42),
	}
	var buf strings.Builder
	failed := diff(&buf, baseline, current, 10)
	if len(failed) != 1 || failed[0] != "BenchmarkB" {
		t.Fatalf("failed = %v, want [BenchmarkB]", failed)
	}
	out := buf.String()
	for _, want := range []string{
		"BenchmarkB", "REGRESSED",
		"BenchmarkNew", "new benchmark",
		"BenchmarkGone", "baseline only",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "REGRESSED") != 1 {
		t.Errorf("want exactly one REGRESSED line:\n%s", out)
	}
}

func TestDiffImprovementPasses(t *testing.T) {
	baseline := []result{res("BenchmarkA", 1000)}
	current := []result{res("BenchmarkA", 400)} // -60%: speedups never fail
	var buf strings.Builder
	if failed := diff(&buf, baseline, current, 10); len(failed) != 0 {
		t.Fatalf("improvement reported as regression: %v", failed)
	}
}

// TestHostFingerprint: a snapshot records its host, a snapshot from
// before fingerprints still loads, and a diff prints both hosts and
// flags only a recorded difference.
func TestHostFingerprint(t *testing.T) {
	h := thisHost("Test CPU")
	if h.NumCPU < 1 || h.GOMAXPROCS < 1 || !strings.HasPrefix(h.GoVersion, "go") {
		t.Fatalf("fingerprint = %+v", h)
	}
	raw, err := json.Marshal(snapshot{Host: h, Benchmarks: []result{res("BenchmarkA", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	var back snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Host == nil || *back.Host != *h {
		t.Errorf("round-tripped host = %+v, want %+v", back.Host, h)
	}

	// The committed snapshots predate fingerprints.
	old, err := os.ReadFile("../../BENCH_pr10.json")
	if err != nil {
		t.Fatal(err)
	}
	var legacy snapshot
	if err := json.Unmarshal(old, &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Host != nil || len(legacy.Benchmarks) == 0 {
		t.Errorf("legacy snapshot: host %v, %d benchmarks", legacy.Host, len(legacy.Benchmarks))
	}

	var buf strings.Builder
	diffHosts(&buf, legacy.Host, h)
	if out := buf.String(); !strings.Contains(out, "baseline host: not recorded") ||
		!strings.Contains(out, "Test CPU") || strings.Contains(out, "hosts differ") {
		t.Errorf("legacy diff header:\n%s", out)
	}
	buf.Reset()
	diffHosts(&buf, h, h)
	if strings.Contains(buf.String(), "hosts differ") {
		t.Errorf("same host flagged as different:\n%s", buf.String())
	}
	other := *h
	other.CPU = "Other CPU"
	buf.Reset()
	diffHosts(&buf, &other, h)
	if out := buf.String(); !strings.Contains(out, "Other CPU") || !strings.Contains(out, "hosts differ") {
		t.Errorf("cross-host diff header:\n%s", out)
	}
}
