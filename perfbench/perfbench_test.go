package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/scenario"
)

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b := mustJSON(t, streamSpecs(7, 3)), mustJSON(t, streamSpecs(7, 3))
	if a != b {
		t.Error("one seed generated two different stream spec batches")
	}
	if a == mustJSON(t, streamSpecs(8, 3)) {
		t.Error("seeds 7 and 8 generated the same stream specs")
	}
	a, b = mustJSON(t, daemonRounds(7, 3)), mustJSON(t, daemonRounds(7, 3))
	if a != b {
		t.Error("one seed generated two different job sequences")
	}
	if a == mustJSON(t, daemonRounds(8, 3)) {
		t.Error("seeds 7 and 8 generated the same job sequence")
	}
	if mustJSON(t, daemonRounds(7, 2)) != mustJSON(t, daemonRounds(7, 3)[:3]) {
		t.Error("a longer run changed the rounds a shorter one makes")
	}
}

func TestGeneratedSpecsAreValid(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for i, sc := range streamSpecs(seed, streamBatch*streamBatches) {
			if err := sc.Validate(); err != nil {
				t.Fatalf("seed %d stream spec %d: %v", seed, i, err)
			}
		}
	}
	rounds := daemonRounds(3, 20)
	for r, jobs := range rounds {
		for i, j := range jobs {
			if err := j.Spec.Validate(); err != nil {
				t.Fatalf("round %d job %d: %v", r, i, err)
			}
		}
		if r == 0 {
			continue
		}
		// Every measured round: two fresh specs no earlier round used,
		// one sweep per axis over each of the previous round's fresh
		// specs, and sixteen repeats of the previous round's first
		// submissions.
		prev := rounds[r-1]
		seen := map[string]bool{}
		for _, earlier := range rounds[:r] {
			for _, j := range earlier {
				seen[j.Spec.Hash()] = true
			}
		}
		for _, j := range jobs[:2] {
			if j.Kind != "fresh" || seen[j.Spec.Hash()] {
				t.Fatalf("round %d: %s job is not a fresh spec", r, j.Kind)
			}
		}
		for i, j := range jobs[2:8] {
			base := j.Spec
			base.Sweep = scenario.Sweep{}
			if j.Kind != "sweep" || base.Hash() != prev[i/3].Spec.Hash() {
				t.Fatalf("round %d: %s job is not a sweep over the previous round's fresh spec %d", r, j.Kind, i/3)
			}
		}
		for i := 0; i < 2; i++ {
			axes := map[string]bool{}
			for _, j := range jobs[2+3*i : 5+3*i] {
				axes[j.Spec.Sweep.Axis] = true
			}
			if len(axes) != len(sweepAxes) {
				t.Fatalf("round %d sweeps %d axes over fresh spec %d, want %d", r, len(axes), i, len(sweepAxes))
			}
		}
		firsts := map[string]bool{}
		for _, j := range prev[:min(len(prev), 8)] {
			firsts[j.Spec.Hash()] = true
		}
		for i, j := range jobs[8:] {
			if j.Kind != "repeat" || !firsts[j.Spec.Hash()] {
				t.Fatalf("round %d job %d does not repeat a first submission of round %d", r, i+8, r-1)
			}
		}
		if len(jobs) != 24 {
			t.Fatalf("round %d has %d jobs", r, len(jobs))
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	all := append(append([]struct{ name, unit string }{}, endToEnd...), layerMetrics()...)
	for _, m := range all {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s unit %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, layerMetrics())
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestReportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {16, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := reportedTail(c.n); got != c.want {
			t.Errorf("reportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		// A render of 100ms with two overlapping jobs (10-50, 30-70)
		// and one disjoint job (80-90): children cover 70ms.
		{ID: 1, Layer: "experiments", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Layer: "runner", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Layer: "runner", Start: ms(30), End: ms(70)},
		{ID: 4, Parent: 1, Layer: "runner", Start: ms(80), End: ms(90)},
		// Job 2 builds a system (15-25) and reads a blob that outlives
		// it (45-55): only 45-50 lies inside the job.
		{ID: 5, Parent: 2, Layer: "core", Start: ms(15), End: ms(25)},
		{ID: 6, Parent: 2, Layer: "blobstore", Start: ms(45), End: ms(55)},
		// Nested twice: the system build's own child.
		{ID: 7, Parent: 5, Layer: "trace", Start: ms(20), End: ms(22)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"experiments": ms(30),
		// job 2: 40 - (10 + 5) = 25; job 3: 40; job 4: 10.
		"runner":    ms(75),
		"core":      ms(8),
		"blobstore": ms(10),
		"trace":     ms(2),
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if c := covered(ms(0), ms(10), [][2]time.Duration{{ms(2), ms(4)}, {ms(3), ms(5)}, {ms(8), ms(20)}}); c != ms(5) {
		t.Errorf("covered = %v, want 5ms", c)
	}
}

func TestCriticalPath(t *testing.T) {
	spans := []Span{
		// One render: capture Q6 (10ms) then two parallel replays (5,
		// 7ms); a cold Q3 of 12ms alongside. Longest chain 17ms.
		{ID: 1, Parent: 100, Name: "job capture/Q6", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 100, Name: "job replay/Q6", Start: ms(10), End: ms(15)},
		{ID: 3, Parent: 100, Name: "job replay/Q6", Start: ms(10), End: ms(17)},
		{ID: 4, Parent: 100, Name: "job cold/Q3", Start: ms(0), End: ms(12)},
		// A second render: a three-phase stream, 4ms each.
		{ID: 5, Parent: 200, Name: "job stream/phase0", Start: ms(20), End: ms(24)},
		{ID: 6, Parent: 200, Name: "job stream/phase1", Start: ms(24), End: ms(28)},
		{ID: 7, Parent: 200, Name: "job stream/phase2", Start: ms(28), End: ms(32)},
		{ID: 8, Parent: 200, Name: "queue stream/phase2", Start: ms(20), End: ms(28)},
	}
	if got := criticalPath(spans); got != ms(29) {
		t.Errorf("critical path = %v, want 29ms", got)
	}
}

func TestJobMode(t *testing.T) {
	for name, want := range map[string]string{
		"capture/Q6": "capture", "replay/Q12": "replay", "cold/Q3": "cold",
		"warm/Q3<-Q12": "warm", "measure/Q3<-Q12": "warm", "ablate/Q6/a..b": "ablate",
		"stream/phase2": "stream", "table1": "other",
	} {
		if got := jobMode(name); got != want {
			t.Errorf("jobMode(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestPromSample(t *testing.T) {
	text := "# HELP x\nwal_appends_total 12\nwal_appends_total_extra 99\ncache_hits_total{tier=\"memory\"} 3\ncache_hits_total{tier=\"disk\"} 4\n"
	if got := promSample(text, "wal_appends_total", ""); got != 12 {
		t.Errorf("unlabelled sample = %v", got)
	}
	if got := promSample(text, "cache_hits_total", ""); got != 7 {
		t.Errorf("labelled family sum = %v", got)
	}
	if got := promSample(text, "cache_hits_total", `tier="disk"`); got != 4 {
		t.Errorf("one label = %v", got)
	}
}
