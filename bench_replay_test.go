// Benchmarks for the replay fast path: trace decode (per-event vs
// batched) and whole-sweep replay (whole-blob buffering vs streamed
// chunk reads). These are the gated benchmarks — `make bench-diff-replay`
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

var benchTrace struct {
	once sync.Once
	tr   *trace.QueryTrace
	blob []byte
	mcfg machine.Config
	err  error
}

// benchReplayTrace captures Q6 at the bench scale once and shares the
// recording (and its marshaled blob) across the replay benchmarks.
func benchReplayTrace(b *testing.B) (*trace.QueryTrace, []byte, machine.Config) {
	b.Helper()
	benchTrace.once.Do(func() {
		cfg := core.DefaultConfig()
		cfg.DB.ScaleFactor = benchScale
		s, err := core.NewSystem(cfg)
		if err != nil {
			benchTrace.err = err
			return
		}
		_, tr := s.RunColdRecorded("Q6")
		benchTrace.tr = tr
		benchTrace.blob = tr.Marshal()
		benchTrace.mcfg = cfg.Machine
	})
	if benchTrace.err != nil {
		b.Fatal(benchTrace.err)
	}
	return benchTrace.tr, benchTrace.blob, benchTrace.mcfg
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
