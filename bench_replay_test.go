// Benchmarks for the replay fast path: trace decode (per-event vs
// batched), whole-sweep replay (whole-blob buffering vs streamed chunk
// reads), and the replay kernel alone (in-memory traces through the
// sched driver and the machine model). These are the gated benchmarks — `make bench-diff-replay`
// fails CI if their ns/op regresses by more than 10%.
package repro

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/trace"
)

// benchQueries are the queries the replay benchmarks capture: the
// paper's Figure 6 trio.
var benchQueries = []string{"Q3", "Q6", "Q12"}

var benchTrace struct {
	once sync.Once
	trs  map[string]*trace.QueryTrace
	blob []byte
	mcfg machine.Config
	err  error
}

// benchReplayTraces captures the bench queries at the bench scale once
// and shares the recordings (and Q6's marshaled blob) across the replay
// benchmarks.
func benchReplayTraces(b *testing.B) (map[string]*trace.QueryTrace, machine.Config) {
	b.Helper()
	benchTrace.once.Do(func() {
		cfg := core.DefaultConfig()
		cfg.DB.ScaleFactor = benchScale
		s, err := core.NewSystem(cfg)
		if err != nil {
			benchTrace.err = err
			return
		}
		benchTrace.trs = make(map[string]*trace.QueryTrace, len(benchQueries))
		for _, q := range benchQueries {
			_, benchTrace.trs[q] = s.RunColdRecorded(q)
		}
		benchTrace.blob = benchTrace.trs["Q6"].Marshal()
		benchTrace.mcfg = cfg.Machine
	})
	if benchTrace.err != nil {
		b.Fatal(benchTrace.err)
	}
	return benchTrace.trs, benchTrace.mcfg
}

// benchReplayTrace returns the captured Q6 trace, its blob, and the
// machine it was captured on.
func benchReplayTrace(b *testing.B) (*trace.QueryTrace, []byte, machine.Config) {
	trs, mcfg := benchReplayTraces(b)
	return trs["Q6"], benchTrace.blob, mcfg
}

// BenchmarkReplayDecode measures raw event decode throughput over every
// stream of a captured Q6 trace: the per-event cursor against the
// batched cursor the replay driver uses.
func BenchmarkReplayDecode(b *testing.B) {
	tr, _, _ := benchReplayTrace(b)
	var events uint64
	for _, s := range tr.Streams {
		events += s.Events
	}

	b.Run("event", func(b *testing.B) {
		var ev trace.Event
		for i := 0; i < b.N; i++ {
			var n uint64
			for s := range tr.Streams {
				cur := tr.StreamCursor(s)
				for {
					ok, err := cur.Next(&ev)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					n++
				}
			}
			if n != events {
				b.Fatalf("decoded %d events, want %d", n, events)
			}
		}
		b.ReportMetric(float64(events), "events/op")
	})

	b.Run("batch", func(b *testing.B) {
		buf := make([]trace.Event, 8192)
		for i := 0; i < b.N; i++ {
			var n uint64
			for s := range tr.Streams {
				cur := tr.StreamCursor(s)
				for {
					k, err := cur.DecodeBatch(buf)
					if err != nil {
						b.Fatal(err)
					}
					if k == 0 {
						break
					}
					n += uint64(k)
				}
			}
			if n != events {
				b.Fatalf("decoded %d events, want %d", n, events)
			}
		}
		b.ReportMetric(float64(events), "events/op")
	})
}

// BenchmarkReplayStreamed measures a full timing replay of the captured
// Q6 trace: buffering the whole blob in memory and unmarshaling it
// against streaming it chunk-by-chunk from a file, the path every
// trace-store replay takes. The allocation delta is the point: streamed
// replay must not buffer the blob.
func BenchmarkReplayStreamed(b *testing.B) {
	_, blob, mcfg := benchReplayTrace(b)

	b.Run("wholeblob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := trace.Unmarshal(blob)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.ReplayTrace(tr, mcfg); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("streamed", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "q6.trace")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			rd, err := trace.OpenBlob(f, int64(len(blob)))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.ReplayTrace(rd, mcfg); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
}

// BenchmarkReplayKernel measures the replay layer on its own: the
// captured Q3, Q6 and Q12 traces replayed cold from memory on the
// baseline machine, which is what every sweep point runs. ns/event is
// the per-reference cost of the sched driver, the inline decoder and
// the machine model together.
func BenchmarkReplayKernel(b *testing.B) {
	trs, mcfg := benchReplayTraces(b)
	var events uint64
	for _, q := range benchQueries {
		for _, s := range trs[q].Streams {
			events += s.Events
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range benchQueries {
			if _, err := core.ReplayTrace(trs[q], mcfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
}
