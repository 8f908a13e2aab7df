package runner

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// fakeFactory stands in for system construction and counts calls; the
// test bodies that use it never touch the returned (empty) system.
type fakeFactory struct {
	calls int64
}

func (f *fakeFactory) build(scenario.Scenario) (*core.System, error) {
	atomic.AddInt64(&f.calls, 1)
	return &core.System{}, nil
}

// specQ is the default scenario spec narrowed to the given query list —
// the job-identity idiom the tests perturb.
func specQ(qs ...string) scenario.Scenario {
	sc := scenario.Default()
	sc.Workload.Queries = qs
	return sc
}

func newTestPool(t *testing.T, workers int) (*Pool, *fakeFactory) {
	t.Helper()
	f := &fakeFactory{}
	p := New(Config{Workers: workers, Factory: f.build})
	t.Cleanup(p.Close)
	return p, f
}

func waitRunning(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Running < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d running jobs (running=%d)", n, p.Stats().Running)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDependencyOrdering checks the warm-cache invariant: a measured
// job never starts before its warming predecessor finished, no matter
// how many workers compete for the queue.
func TestDependencyOrdering(t *testing.T) {
	p, _ := newTestPool(t, 4)
	const pairs = 8
	var warmed [pairs]int32
	var jobs []*Job
	var measureIdx []int
	for i := 0; i < pairs; i++ {
		i := i
		warm := &Job{
			Name: fmt.Sprintf("warm-%d", i), NoCache: true,
			Body: func(*Ctx) (interface{}, error) {
				time.Sleep(time.Duration(i%3) * time.Millisecond)
				atomic.StoreInt32(&warmed[i], 1)
				return nil, nil
			},
		}
		measure := &Job{
			Name: fmt.Sprintf("measure-%d", i), NoCache: true,
			After: []*Job{warm},
			Body: func(*Ctx) (interface{}, error) {
				if atomic.LoadInt32(&warmed[i]) == 0 {
					return nil, fmt.Errorf("measure-%d started before warm-%d finished", i, i)
				}
				return i, nil
			},
		}
		measureIdx = append(measureIdx, len(jobs)+1)
		jobs = append(jobs, warm, measure)
	}
	res, err := p.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range measureIdx {
		if res[idx] != i {
			t.Errorf("measure-%d returned %v", i, res[idx])
		}
	}
}

// TestCacheAccounting checks hit/miss bookkeeping: the first run of a
// cacheable job is a miss, an identical resubmission is a hit that does
// not re-run the body, and an unrelated job misses again.
func TestCacheAccounting(t *testing.T) {
	p, _ := newTestPool(t, 2)
	var runs int64
	mk := func(q string) *Job {
		return &Job{
			Name: "cold/" + q, Mode: "cold", Spec: specQ(q),
			Body: func(*Ctx) (interface{}, error) {
				atomic.AddInt64(&runs, 1)
				return "result-" + q, nil
			},
		}
	}
	if _, err := p.RunAll(context.Background(), []*Job{mk("Q6")}); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunAll(context.Background(), []*Job{mk("Q6")})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "result-Q6" {
		t.Fatalf("cached result = %v", res[0])
	}
	if _, err := p.RunAll(context.Background(), []*Job{mk("Q3")}); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&runs); got != 2 {
		t.Errorf("bodies ran %d times, want 2 (Q6 once, Q3 once)", got)
	}
	s := p.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", s.CacheHits, s.CacheMisses)
	}
	if got := s.HitRate(); got < 0.33 || got > 0.34 {
		t.Errorf("hit rate = %v, want 1/3", got)
	}
	if s.Completed != 2 || s.Submitted != 3 {
		t.Errorf("completed=%d submitted=%d, want 2/3", s.Completed, s.Submitted)
	}
}

// TestDeterministicOrder checks RunAll's contract: results come back in
// submission order even when completion order is scrambled by workers.
func TestDeterministicOrder(t *testing.T) {
	p, _ := newTestPool(t, 4)
	const n = 40
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = &Job{
			Name: fmt.Sprintf("j%d", i), NoCache: true,
			Body: func(*Ctx) (interface{}, error) {
				// Later submissions finish earlier.
				time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
				return i, nil
			},
		}
	}
	res, err := p.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r != i {
			t.Fatalf("res[%d] = %v, want %d", i, r, i)
		}
	}
}

// TestShutdownDrain checks graceful shutdown: running jobs complete,
// queued jobs fail with ErrShutdown, and later submissions are refused.
func TestShutdownDrain(t *testing.T) {
	p, _ := newTestPool(t, 2)
	release := make(chan struct{})
	slow := func(name string) *Job {
		return &Job{Name: name, NoCache: true, Body: func(*Ctx) (interface{}, error) {
			<-release
			return name, nil
		}}
	}
	fast := func(name string) *Job {
		return &Job{Name: name, NoCache: true, Body: func(*Ctx) (interface{}, error) {
			return name, nil
		}}
	}
	ids, err := p.SubmitAll([]*Job{slow("a"), slow("b"), fast("c"), fast("d")})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p, 2)
	done := make(chan error, 1)
	go func() { done <- p.Shutdown(context.Background()) }()
	time.Sleep(5 * time.Millisecond) // let Shutdown cancel the queue
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, id := range ids[:2] {
		info, ok := p.Info(id)
		if !ok || info.State != Done {
			t.Errorf("running job %d state = %v, want done", i, info.State)
		}
	}
	for i, id := range ids[2:] {
		info, ok := p.Info(id)
		if !ok || info.State != Failed || !errors.Is(info.Err, ErrShutdown) {
			t.Errorf("queued job %d state = %v err = %v, want failed/ErrShutdown", i, info.State, info.Err)
		}
	}
	if _, err := p.Submit(fast("late")); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after shutdown = %v, want ErrShutdown", err)
	}
}

// TestEphemeralPruning checks that a warming job is skipped when every
// dependent resolves from the cache at submission.
func TestEphemeralPruning(t *testing.T) {
	p, _ := newTestPool(t, 2)
	var warms, measures int64
	mk := func() []*Job {
		warm := &Job{
			Name: "warm", NoCache: true, Ephemeral: true, StateKey: "pair",
			Body: func(*Ctx) (interface{}, error) {
				atomic.AddInt64(&warms, 1)
				return nil, nil
			},
		}
		measure := &Job{
			Name: "measure", Mode: "warm", Spec: specQ("Q12"),
			StateKey: "pair", After: []*Job{warm},
			Body: func(*Ctx) (interface{}, error) {
				atomic.AddInt64(&measures, 1)
				return "warm-result", nil
			},
		}
		return []*Job{warm, measure}
	}
	if _, err := p.RunAll(context.Background(), mk()); err != nil {
		t.Fatal(err)
	}
	ids, err := p.SubmitAll(mk())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Wait(context.Background(), ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "warm-result" {
		t.Fatalf("cached measure = %v", res[0])
	}
	if warms != 1 || measures != 1 {
		t.Errorf("warm ran %d times, measure %d times, want 1/1", warms, measures)
	}
	winfo, _ := p.Info(ids[0])
	if winfo.State != Skipped {
		t.Errorf("resubmitted warm state = %v, want skipped", winfo.State)
	}
	minfo, _ := p.Info(ids[1])
	if minfo.State != Cached || !minfo.CacheHit {
		t.Errorf("resubmitted measure state = %v hit=%v, want cached/true", minfo.State, minfo.CacheHit)
	}
	if s := p.Stats(); s.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", s.Skipped)
	}
}

// TestRetries checks retry bookkeeping: a flaky body is re-attempted up
// to Retries times; a hopeless one fails with its attempts recorded.
func TestRetries(t *testing.T) {
	p, _ := newTestPool(t, 1)
	var tries int64
	id, err := p.Submit(&Job{
		Name: "flaky", NoCache: true, Retries: 2,
		Body: func(*Ctx) (interface{}, error) {
			if atomic.AddInt64(&tries, 1) < 3 {
				return nil, errors.New("transient")
			}
			return "ok", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Wait(context.Background(), id)
	if err != nil || res[0] != "ok" {
		t.Fatalf("flaky job: res=%v err=%v", res, err)
	}
	info, _ := p.Info(id)
	if info.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", info.Attempts)
	}

	id, err = p.Submit(&Job{
		Name: "hopeless", NoCache: true, Retries: 1,
		Body: func(*Ctx) (interface{}, error) { return nil, errors.New("permanent") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(context.Background(), id); err == nil {
		t.Fatal("hopeless job succeeded")
	}
	info, _ = p.Info(id)
	if info.State != Failed || info.Attempts != 2 {
		t.Errorf("hopeless: state=%v attempts=%d, want failed/2", info.State, info.Attempts)
	}
}

// TestPanicRecovery checks that a panicking body fails its job instead
// of killing the worker.
func TestPanicRecovery(t *testing.T) {
	p, _ := newTestPool(t, 1)
	id, err := p.Submit(&Job{Name: "boom", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { panic("kaboom") }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(context.Background(), id); err == nil {
		t.Fatal("panicking job reported success")
	}
	// The worker survived: it can still run jobs.
	res, err := p.RunAll(context.Background(), []*Job{{Name: "after", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { return 42, nil }}})
	if err != nil || res[0] != 42 {
		t.Fatalf("job after panic: res=%v err=%v", res, err)
	}
}

// TestPriorityOrder checks the ready queue: with one gated worker,
// queued jobs run lowest-priority-value first, FIFO within a priority.
func TestPriorityOrder(t *testing.T) {
	p, _ := newTestPool(t, 1)
	release := make(chan struct{})
	blocker := &Job{Name: "blocker", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { <-release; return nil, nil }}
	if _, err := p.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p, 1)

	var mu sync.Mutex
	var order []string
	mk := func(name string, prio int) *Job {
		return &Job{Name: name, Priority: prio, NoCache: true,
			Body: func(*Ctx) (interface{}, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil, nil
			}}
	}
	jobs := []*Job{mk("p5", 5), mk("p1a", 1), mk("p3", 3), mk("p1b", 1)}
	ids, err := p.SubmitAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if _, err := p.Wait(context.Background(), ids...); err != nil {
		t.Fatal(err)
	}
	want := []string{"p1a", "p1b", "p3", "p5"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

// TestBatchScopedStateKeys checks that equal StateKeys in different
// batches get distinct shared systems (concurrent submissions of the
// same experiment must not share mutable state), while jobs within one
// batch share a single build.
func TestBatchScopedStateKeys(t *testing.T) {
	p, f := newTestPool(t, 2)
	mkBatch := func() []*Job {
		a := &Job{Name: "a", NoCache: true, StateKey: "shared",
			Body: func(c *Ctx) (interface{}, error) { _, err := c.System(); return nil, err }}
		b := &Job{Name: "b", NoCache: true, StateKey: "shared", After: []*Job{a},
			Body: func(c *Ctx) (interface{}, error) { _, err := c.System(); return nil, err }}
		return []*Job{a, b}
	}
	if _, err := p.RunAll(context.Background(), mkBatch()); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&f.calls); got != 1 {
		t.Fatalf("first batch built %d systems, want 1", got)
	}
	if _, err := p.RunAll(context.Background(), mkBatch()); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&f.calls); got != 2 {
		t.Errorf("second batch reused the first batch's system (builds=%d, want 2)", got)
	}
	// Both batches settled, so the shared map must be empty.
	p.sharedMu.Lock()
	leftover := len(p.shared) + len(p.stateRefs)
	p.sharedMu.Unlock()
	if leftover != 0 {
		t.Errorf("%d shared-system entries leaked", leftover)
	}
}

// TestDependencyFailureCascades checks that a failed dependency fails
// its dependents instead of leaving them pending forever.
func TestDependencyFailureCascades(t *testing.T) {
	p, _ := newTestPool(t, 2)
	bad := &Job{Name: "bad", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { return nil, errors.New("broken warmer") }}
	dep := &Job{Name: "dep", NoCache: true, After: []*Job{bad},
		Body: func(*Ctx) (interface{}, error) { return "ran", nil }}
	ids, err := p.SubmitAll([]*Job{bad, dep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(context.Background(), ids[1]); err == nil {
		t.Fatal("dependent of failed job succeeded")
	}
	info, _ := p.Info(ids[1])
	if info.State != Failed {
		t.Errorf("dependent state = %v, want failed", info.State)
	}
}

// diskResult is the payload for the disk-cache round trip.
type diskResult struct{ N int }

func init() { gob.Register(diskResult{}) }

// TestDiskCache checks the persistent tier: a second pool pointed at
// the same directory resolves a prior pool's results without running.
func TestDiskCache(t *testing.T) {
	dir := t.TempDir()
	f := &fakeFactory{}
	mk := func() *Job {
		return &Job{Name: "persisted", Mode: "cold", Spec: specQ("Q6"),
			Body: func(*Ctx) (interface{}, error) { return diskResult{N: 7}, nil }}
	}
	p1 := New(Config{Workers: 1, CacheDir: dir, Factory: f.build})
	if _, err := p1.RunAll(context.Background(), []*Job{mk()}); err != nil {
		t.Fatal(err)
	}
	p1.Close()

	p2 := New(Config{Workers: 1, CacheDir: dir, Factory: f.build})
	defer p2.Close()
	res, err := p2.RunAll(context.Background(), []*Job{mk()})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res[0].(diskResult); !ok || got.N != 7 {
		t.Fatalf("disk-cached result = %#v", res[0])
	}
	if s := p2.Stats(); s.CacheHits != 1 || s.Completed != 0 {
		t.Errorf("second pool: hits=%d completed=%d, want 1/0", s.CacheHits, s.Completed)
	}
}

// TestEvents checks the progress stream: a job's lifecycle publishes
// queued, started, and finished events in order.
func TestEvents(t *testing.T) {
	p, _ := newTestPool(t, 1)
	events, cancel := p.Subscribe(16)
	defer cancel()
	id, err := p.Submit(&Job{Name: "observed", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	want := []EventKind{JobQueued, JobStarted, JobFinished}
	for _, k := range want {
		select {
		case ev := <-events:
			if ev.Kind != k || ev.Job != id {
				t.Fatalf("event = %v/%v, want kind %v for job %d", ev.Kind, ev.Job, k, id)
			}
			if k == JobFinished && ev.State != Done {
				t.Errorf("finished state = %v, want done", ev.State)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %v event", k)
		}
	}
}

// TestEventQueueAndRunTimes checks that finished events split a job's
// elapsed time into queue wait and run time: a job submitted behind a
// busy single worker waits for it, so its run time is shorter than its
// submission-to-finish elapsed time, and the two parts add up.
func TestEventQueueAndRunTimes(t *testing.T) {
	p, _ := newTestPool(t, 1)
	events, cancel := p.Subscribe(16)
	defer cancel()
	release := make(chan struct{})
	busy, err := p.Submit(&Job{Name: "busy", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { <-release; return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p, 1)
	queued, err := p.Submit(&Job{Name: "queued", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	const hold = 20 * time.Millisecond
	time.Sleep(hold)
	close(release)
	if _, err := p.Wait(context.Background(), busy, queued); err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case ev := <-events:
			if ev.Kind != JobFinished || ev.Job != queued {
				continue
			}
			if ev.Queue < hold {
				t.Errorf("queue = %v, want >= %v spent behind the busy worker", ev.Queue, hold)
			}
			if ev.Run >= ev.Elapsed {
				t.Errorf("run = %v not shorter than elapsed %v", ev.Run, ev.Elapsed)
			}
			if ev.Queue+ev.Run != ev.Elapsed {
				t.Errorf("queue %v + run %v != elapsed %v", ev.Queue, ev.Run, ev.Elapsed)
			}
			return
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for the queued job's finished event")
		}
	}
}

// TestWaitContext checks that Wait respects context cancellation.
func TestWaitContext(t *testing.T) {
	p, _ := newTestPool(t, 1)
	release := make(chan struct{})
	defer close(release)
	id, err := p.Submit(&Job{Name: "stuck", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { <-release; return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.Wait(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait = %v, want deadline exceeded", err)
	}
}

// TestBadSubmissions checks batch validation.
func TestBadSubmissions(t *testing.T) {
	p, _ := newTestPool(t, 1)
	if _, err := p.SubmitAll([]*Job{{Name: "nobody"}}); err == nil {
		t.Error("job without body accepted")
	}
	j := &Job{Name: "dup", NoCache: true, Body: func(*Ctx) (interface{}, error) { return nil, nil }}
	if _, err := p.SubmitAll([]*Job{j, j}); err == nil {
		t.Error("duplicate job accepted")
	}
	outside := &Job{Name: "out", NoCache: true, Body: func(*Ctx) (interface{}, error) { return nil, nil }}
	in := &Job{Name: "in", NoCache: true, After: []*Job{outside},
		Body: func(*Ctx) (interface{}, error) { return nil, nil }}
	if _, err := p.SubmitAll([]*Job{in}); err == nil {
		t.Error("out-of-batch dependency accepted")
	}
	if _, err := p.Wait(context.Background(), 99999); err == nil {
		t.Error("unknown job id accepted")
	}
}
