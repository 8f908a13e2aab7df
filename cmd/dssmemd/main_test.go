package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	return newTestServerTimeout(t, 0)
}

func newTestServerTimeout(t *testing.T, renderTimeout time.Duration) (*server, *httptest.Server) {
	t.Helper()
	reg := metrics.New()
	reg.CollectGoRuntime()
	store := blobstore.NewMem()
	exec := experiments.NewExecConfig(runner.Config{Workers: 2, Blobs: store, Metrics: reg})
	s := newServer(exec, reg, store, renderTimeout, nil, nil)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.drain()
		exec.Close()
	})
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, sb.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

func TestRoutes(t *testing.T) {
	_, ts := newTestServer(t)

	if code, body := get(t, ts.URL+"/v1/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/v1/experiments/999"); code != 404 {
		t.Errorf("unknown id: got %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/experiments/notanumber"); code != 400 {
		t.Errorf("bad id: got %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"exp":"fig99"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown experiment: got %d, want 400", resp.StatusCode)
	}

	if code, body := post(t, ts.URL+"/v1/scenarios", `not json`); code != 400 {
		t.Errorf("bad scenario json: %d %q", code, body)
	}
	code, body := post(t, ts.URL+"/v1/scenarios", `{"machine":{"processors":0}}`)
	if code != 400 || !strings.Contains(body, "machine.processors") {
		t.Errorf("invalid scenario: %d %q, want 400 with the field path", code, body)
	}
}

// TestSubmitRejectsUnknownFields checks that POST /v1/experiments
// refuses fields it does not know — here the retired replay_workers
// knob — with a 400 naming the field, instead of silently running the
// experiment without it.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := post(t, ts.URL+"/v1/experiments", `{"exp":"fig6","scale":0.002,"replay_workers":2}`)
	if code != 400 || !strings.Contains(body, "replay_workers") {
		t.Errorf("stale replay_workers: %d %q, want 400 naming the field", code, body)
	}
	if code, _ := get(t, ts.URL+"/v1/experiments/1"); code != 404 {
		t.Errorf("rejected request created experiment 1: got %d, want 404", code)
	}
}

// TestPresetsEndpoint checks that GET /v1/scenarios/presets serves the
// full preset registry as decodable scenario specs.
func TestPresetsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/v1/scenarios/presets")
	if code != 200 {
		t.Fatalf("/v1/scenarios/presets: %d", code)
	}
	var presets []struct {
		Name         string              `json:"name"`
		Description  string              `json:"description"`
		Scenarios    []scenario.Scenario `json:"scenarios"`
		QueriesFixed bool                `json:"queries_fixed"`
	}
	if err := json.Unmarshal([]byte(body), &presets); err != nil {
		t.Fatalf("presets json: %v", err)
	}
	want := scenario.PresetNames()
	if len(presets) != len(want) {
		t.Fatalf("got %d presets, want %d", len(presets), len(want))
	}
	for i, p := range presets {
		if p.Name != want[i] || p.Description == "" || len(p.Scenarios) == 0 {
			t.Errorf("preset %d = %q (%d scenarios), want %q", i, p.Name, len(p.Scenarios), want[i])
		}
		for _, sc := range p.Scenarios {
			if err := sc.Validate(); err != nil {
				t.Errorf("preset %s serves invalid spec: %v", p.Name, err)
			}
		}
		// The stream preset must surface its phase structure and its
		// fixed-query marker through the wire format.
		if p.Name == "mixedstreams" {
			if !p.QueriesFixed {
				t.Error("mixedstreams preset not marked queries_fixed")
			}
			if len(p.Scenarios[0].Workload.Phases) != 4 {
				t.Errorf("mixedstreams preset serves %d phases, want 4", len(p.Scenarios[0].Workload.Phases))
			}
		}
	}
}

// TestStreamScenarioSubmit POSTs a multi-phase stream spec: it must
// render synchronously like any other spec, hash under the stream
// format generation, and report per-phase tables.
func TestStreamScenarioSubmit(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{
		"name": "stream-acceptance",
		"workload": {"scale": 0.002, "phases": [
			{"flush": true, "runs": [[{"query": "Q6"}], [{"query": "Q6", "variant": 1}]]},
			{"runs": [[{"query": "Q3", "variant": 10}], [{"query": "Q12", "variant": 11}]]}
		]}
	}`
	code, body := post(t, ts.URL+"/v1/scenarios", spec)
	if code != 200 {
		t.Fatalf("stream POST: %d %q", code, body)
	}
	var res struct {
		Name, Preset, Hash, Report string
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Hash, "s2-") {
		t.Errorf("stream spec hash %q lacks the stream-generation prefix", res.Hash)
	}
	for _, want := range []string{"2-phase stream", "Phase execution", "Per-phase secondary-cache misses"} {
		if !strings.Contains(res.Report, want) {
			t.Errorf("stream report lacks %q", want)
		}
	}
}

// TestScenarioSubmit is the acceptance path: a never-before-seen spec —
// three processors, 256-byte secondary lines, a degree-2 prefetch sweep
// on Q6 — POSTed to /v1/scenarios renders synchronously, and a repeat
// POST of the same spec is answered from the runner's result cache,
// with the hits visible on /metrics.
func TestScenarioSubmit(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{
		"name": "acceptance",
		"machine": {"processors": 3, "l2_line": 256, "l1_line": 128},
		"workload": {"queries": ["Q6"], "scale": 0.002},
		"sweep": {"axis": "prefetch", "points": [0, 2]}
	}`

	code, body := post(t, ts.URL+"/v1/scenarios", spec)
	if code != 200 {
		t.Fatalf("first POST: %d %q", code, body)
	}
	var first struct {
		Name, Preset, Hash, Report string
	}
	if err := json.Unmarshal([]byte(body), &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "acceptance" || first.Preset != "custom" {
		t.Errorf("name/preset = %q/%q, want acceptance/custom", first.Name, first.Preset)
	}
	if !strings.HasPrefix(first.Hash, "s1-") {
		t.Errorf("hash %q lacks the format-version prefix", first.Hash)
	}
	for _, want := range []string{"Scenario acceptance (s1-", "3 processors", "Sweep: prefetch over [0 2]"} {
		if !strings.Contains(first.Report, want) {
			t.Errorf("report lacks %q", want)
		}
	}

	_, metricsBefore := get(t, ts.URL+"/metrics")
	hitsBefore := counterValue(t, metricsBefore, `dssmem_cache_hits_total{tier="memory"}`)

	code, body = post(t, ts.URL+"/v1/scenarios", spec)
	if code != 200 {
		t.Fatalf("second POST: %d %q", code, body)
	}
	var second struct {
		Name, Preset, Hash, Report string
	}
	if err := json.Unmarshal([]byte(body), &second); err != nil {
		t.Fatal(err)
	}
	if second.Report != first.Report || second.Hash != first.Hash {
		t.Error("repeat POST did not reproduce the first response")
	}

	code, metricsAfter := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	if hits := counterValue(t, metricsAfter, `dssmem_cache_hits_total{tier="memory"}`); hits <= hitsBefore {
		t.Errorf("repeat POST not served from cache: memory hits %v -> %v", hitsBefore, hits)
	}
	if got := counterValue(t, metricsAfter, `dssmem_scenarios_rendered_total{preset="custom"}`); got != 2 {
		t.Errorf(`dssmem_scenarios_rendered_total{preset="custom"} = %v, want 2`, got)
	}
}

// counterValue pulls one sample's value out of a Prometheus text
// exposition, 0 when the series is absent.
func counterValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestSubmitAndMetrics drives one tiny experiment end to end and then
// checks that /metrics exposes the acceptance-critical families with
// the traffic visible in them.
func TestSubmitAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"exp":"table1","scale":0.001}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID int64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 || sub.ID == 0 {
		t.Fatalf("submit: %d id=%d", resp.StatusCode, sub.ID)
	}

	deadline := time.Now().Add(2 * time.Minute)
	var run experimentRun
	for {
		code, body := get(t, fmt.Sprintf("%s/v1/experiments/%d", ts.URL, sub.ID))
		if code != 200 {
			t.Fatalf("status: %d %q", code, body)
		}
		if err := json.Unmarshal([]byte(body), &run); err != nil {
			t.Fatal(err)
		}
		if run.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("experiment did not finish in time")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if run.State != "done" || !strings.Contains(run.Output, "Table 1") {
		t.Fatalf("run: state=%s err=%q", run.State, run.Error)
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"dssmem_http_requests_total",
		"dssmem_http_request_seconds",
		"dssmem_runner_queue_depth",
		"dssmem_cache_hits_total",
		"dssmem_experiment_seconds",
		"dssmem_experiments_done_total 1",
		`dssmem_http_requests_total{route="/v1/experiments",status="2xx"} 1`,
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatalf("/v1/stats: %d", code)
	}
	var stats struct {
		Uptime    float64 `json:"uptime_seconds"`
		Requests  float64 `json:"requests_total"`
		Submitted float64 `json:"experiments_submitted"`
		Done      float64 `json:"experiments_done"`
		Failed    float64 `json:"experiments_failed"`
		HitRate   float64 `json:"cache_hit_rate"`
		Pool      any     `json:"pool"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("stats json: %v\n%s", err, body)
	}
	if stats.Uptime <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", stats.Uptime)
	}
	if stats.Requests == 0 {
		t.Error("requests_total = 0 after served traffic")
	}
	if stats.Submitted != 1 || stats.Done != 1 || stats.Failed != 0 {
		t.Errorf("experiment counters = %v/%v/%v, want 1/1/0",
			stats.Submitted, stats.Done, stats.Failed)
	}
	if stats.Pool == nil {
		t.Error("stats missing pool snapshot")
	}
}

// TestJobsAPI drives the async job lifecycle end to end: accepted with
// an id, progress streamed over SSE, and a final report byte-identical
// to what the synchronous /v1/scenarios endpoint returns for the same
// spec.
func TestJobsAPI(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{
		"name": "async",
		"machine": {"processors": 2},
		"workload": {"queries": ["Q6"], "scale": 0.001},
		"sweep": {"axis": "prefetch", "points": [0, 2]}
	}`

	code, body := post(t, ts.URL+"/v1/jobs", spec)
	if code != 202 {
		t.Fatalf("submit: %d %q", code, body)
	}
	var sub struct {
		JobID string `json:"job_id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.JobID == "" || sub.State != "queued" {
		t.Fatalf("submit response = %+v", sub)
	}

	// The SSE stream ends when the job reaches a terminal state; its
	// replay semantics mean subscribing at any point sees every event.
	code, events := get(t, ts.URL+"/v1/jobs/"+sub.JobID+"/events")
	if code != 200 {
		t.Fatalf("events: %d", code)
	}
	if !strings.Contains(events, "event: progress") {
		t.Fatalf("SSE stream has no progress event:\n%s", events)
	}
	if !strings.Contains(events, "event: state") || !strings.Contains(events, `"state":"done"`) {
		t.Fatalf("SSE stream has no terminal done event:\n%s", events)
	}

	code, body = get(t, ts.URL+"/v1/jobs/"+sub.JobID)
	if code != 200 {
		t.Fatalf("status: %d %q", code, body)
	}
	var st struct {
		State    string `json:"state"`
		Progress struct {
			Done  int `json:"done"`
			Total int `json:"total"`
		} `json:"progress"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Progress.Done != 2 || st.Progress.Total != 2 {
		t.Fatalf("status = %+v, want done 2/2 (capture + one replay)", st)
	}

	code, asyncReport := get(t, ts.URL+"/v1/jobs/"+sub.JobID+"/report")
	if code != 200 {
		t.Fatalf("report: %d %q", code, asyncReport)
	}
	code, syncReport := post(t, ts.URL+"/v1/scenarios", spec)
	if code != 200 {
		t.Fatalf("sync render: %d", code)
	}
	if asyncReport != syncReport {
		t.Fatalf("async report differs from synchronous render:\n--- async ---\n%s\n--- sync ---\n%s",
			asyncReport, syncReport)
	}

	if code, _ := get(t, ts.URL+"/v1/jobs/nosuchjob"); code != 404 {
		t.Errorf("unknown job: got %d, want 404", code)
	}

	// The fabric is visible on /v1/stats even with no peers joined.
	code, body = get(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatalf("/v1/stats: %d", code)
	}
	var stats struct {
		Cluster struct {
			Workers   int                `json:"workers"`
			Jobs      map[string]int     `json:"jobs"`
			Tasks     map[string]int     `json:"tasks"`
			PeerFetch map[string]float64 `json:"peer_fetch"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("stats json: %v\n%s", err, body)
	}
	if stats.Cluster.Workers != 0 || stats.Cluster.Jobs["done"] < 1 {
		t.Errorf("cluster stats = %+v, want 0 workers and >=1 done job", stats.Cluster)
	}
	if stats.Cluster.PeerFetch == nil {
		t.Error("cluster stats missing peer_fetch")
	}

	// And the gauges behind it are on /metrics.
	_, exposition := get(t, ts.URL+"/metrics")
	if got := counterValue(t, exposition, `dssmem_cluster_jobs{state="done"}`); got < 1 {
		t.Errorf(`dssmem_cluster_jobs{state="done"} = %v, want >= 1`, got)
	}
	if !strings.Contains(exposition, "dssmem_cluster_workers") {
		t.Error("/metrics missing dssmem_cluster_workers")
	}
}

// TestRenderTimeout: with -render-timeout set, a synchronous render
// that exceeds it answers 504 instead of holding the connection.
func TestRenderTimeout(t *testing.T) {
	_, ts := newTestServerTimeout(t, time.Nanosecond)
	code, body := post(t, ts.URL+"/v1/scenarios",
		`{"machine": {"processors": 2}, "workload": {"queries": ["Q6"], "scale": 0.001}}`)
	if code != 504 || !strings.Contains(body, "render exceeded") {
		t.Fatalf("got %d %q, want 504 with the timeout notice", code, body)
	}
}
