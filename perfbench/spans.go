package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Start and End are
// offsets from the tracer's epoch; Parent is the ID of the span whose
// work caused this one (0 = the run's root). All spans of one run share
// the tracer's RunID.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Key is the runner job key a span belongs to, when known; it lets
	// spans recorded by wrappers find the job that caused them.
	Key string `json:"key,omitempty"`
}

func (s Span) dur() time.Duration { return s.End - s.Start }

// Tracer keeps a run's spans in memory; they are written out once the
// run ends. A nil *Tracer records nothing, which is how timed runs keep
// tracing off.
type Tracer struct {
	RunID string
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(runID string) *Tracer {
	return &Tracer{RunID: runID, epoch: time.Now()}
}

// since converts a wall-clock instant to an offset from the epoch.
func (t *Tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// Add records a span and returns its ID. A span recorded while still
// open gets its end from Finish.
func (t *Tracer) Add(s Span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// Time runs f and records it as a span under parent, returning the
// span's ID. With a nil tracer it only runs f.
func (t *Tracer) Time(parent int, layer, name string, f func()) int {
	if t == nil {
		f()
		return 0
	}
	start := time.Now()
	f()
	return t.Add(Span{Parent: parent, Layer: layer, Name: name,
		Start: t.since(start), End: t.since(time.Now())})
}

// Finish sets the end of span id, recorded open when it began.
func (t *Tracer) Finish(id int, at time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = t.since(at)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SetParent re-parents span id (wrappers record spans before the job
// they belong to is known).
func (t *Tracer) SetParent(id, parent int) {
	t.mu.Lock()
	t.spans[id-1].Parent = parent
	t.mu.Unlock()
}

// WriteFile writes the run's spans as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	doc := struct {
		RunID string `json:"run_id"`
		Spans []Span `json:"spans"`
	}{t.RunID, t.Spans()}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	var clipped [][2]time.Duration
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each layer's self time: the summed durations of its
// spans minus the part of each span's interval that the span's
// children cover. Children that overlap each other (parallel jobs under
// one render) are counted once.
func selfTimes(spans []Span) map[string]time.Duration {
	children := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// adopt assigns each orphan span (Parent == 0) in kids the job span
// that caused it: among the candidate spans whose interval contains it,
// the one with the same key, else the one that started last.
func adopt(t *Tracer, kids []int, jobs []Span) {
	spans := t.Spans()
	for _, id := range kids {
		k := spans[id-1]
		best, bestKey := Span{}, false
		for _, j := range jobs {
			if j.Start > k.Start || j.End < k.End {
				continue
			}
			keyMatch := k.Key != "" && k.Key == j.Key
			if best.ID == 0 || (keyMatch && !bestKey) || (keyMatch == bestKey && j.Start > best.Start) {
				best, bestKey = j, keyMatch
			}
		}
		if best.ID != 0 {
			t.SetParent(id, best.ID)
		}
	}
}
