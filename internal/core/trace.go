package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/pg/lockmgr"
	"repro/internal/sched"
	"repro/internal/simm"
	"repro/internal/trace"
)

// Profiler stage labels: the capture/decode/replay pipeline stages run
// under pprof labels so a -cpuprofile of a sweep attributes samples per
// stage ("stage" ∈ capture, decode, replay — `make profile` renders
// this). Labels are inherited by goroutines spawned inside the labeled
// region, which covers the replay's lock-manager op goroutines.
func withStage(stage string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("stage", stage), func(context.Context) { f() })
}

// Record-once/replay-many: a cold query run's reference stream depends
// on (query, scale, seed) but not on cache geometry, so the sweep
// experiments capture one baseline execution per query and re-derive
// every other configuration's report by replaying the recorded streams
// through the unchanged sched/machine timing model. Synchronization
// (spinlocks, lock-manager operations) is recorded symbolically and
// re-executed live — its raw traffic depends on cross-processor timing
// and must re-emerge per configuration rather than replay verbatim.

// lockTracer adapts the capture recorder to the lock manager's Tracer.
type lockTracer struct{ rec *trace.Recorder }

func (t lockTracer) BeginOp(p *sched.Proc, acquire bool, tag lockmgr.Tag, mode lockmgr.Mode) {
	t.rec.BeginLockOp(p.ID(), acquire, tag.RelID, uint8(tag.Level), tag.Page, uint8(mode))
}

func (t lockTracer) EndOp(p *sched.Proc) { t.rec.EndLockOp(p.ID()) }

// replayable reports whether runs can take the record-pure capture +
// flat-replay path: every non-empty run must be a read-only query
// (updates mutate shared state, so their reference streams depend on
// the interleaving), and no external observer may be attached (a
// Tracer or Recorder expects to see the live run).
func (s *System) replayable(runs []QueryRun) bool {
	return s.phaseReplayable(singleRunLists(runs))
}

// phaseReplayable is replayable over one phase's per-processor run
// lists.
func (s *System) phaseReplayable(runLists [][]QueryRun) bool {
	if s.Eng.Tracer != nil || s.Eng.Recorder != nil || s.LockMgr.Tracer != nil {
		return false
	}
	any := false
	for _, list := range runLists {
		for _, r := range list {
			switch r.Query {
			case "":
			case "UF1", "UF2":
				return false
			default:
				any = true
			}
		}
	}
	return any
}

// lockStateSnapshot holds the raw bytes of the lock-manager regions.
// A record-pure capture executes lock operations for real, and the
// open-addressing tables' byte layout is history-dependent (tombstone
// placement), so the capture pass is rolled back before the replay
// re-executes the same operations — the replay must mutate exactly the
// state a live run would have, or the *next* run's probe traffic
// diverges.
type lockStateSnapshot struct {
	regions []*simm.Region
	bytes   [][]byte
}

var lockRegionNames = []string{"LockHash", "XidHash", "LockMgrLock"}

func (s *System) snapshotLockState() lockStateSnapshot {
	var snap lockStateSnapshot
	for _, name := range lockRegionNames {
		r := s.Mem.RegionByName(name)
		if r == nil {
			continue
		}
		buf := s.Mem.LoadBytes(r.Base, make([]byte, r.Size), int(r.Size))
		snap.regions = append(snap.regions, r)
		snap.bytes = append(snap.bytes, buf)
	}
	return snap
}

func (snap *lockStateSnapshot) restore(mem *simm.Memory) {
	for i, r := range snap.regions {
		mem.StoreBytes(r.Base, snap.bytes[i])
	}
}

// recordPure captures the bodies' reference streams without timing:
// with the engine in record-pure mode clocks never advance, so the
// sorted-ring scheduler degenerates to sequential execution with zero
// goroutine handoffs, and the accessors skip the timing model entirely.
// The streams are what a live recording would produce — for replayable
// (read-only) workloads the reference stream is interleaving-invariant,
// the contract the sweep equivalence tests pin down.
func (s *System) recordPure(bodies []func(*sched.Proc)) *trace.Recorder {
	rec := trace.NewRecorder(s.Mem.Nodes())
	s.Eng.Recorder, s.Eng.RecordPure = rec, true
	s.LockMgr.Tracer = lockTracer{rec: rec}
	defer func() {
		s.Eng.Recorder, s.Eng.RecordPure = nil, false
		s.LockMgr.Tracer = nil
	}()
	withStage("capture", func() { s.Eng.Run(bodies) })
	return rec
}

// replayStreams drives a flat replay of src's streams on the system's
// own engine and lock manager, continuing from the current clocks and
// machine state.
func (s *System) replayStreams(src trace.Source) error {
	return runReplay(s.Eng, s.LockMgr, src, s.Mem.Nodes())
}

// RunColdRecorded is RunCold with trace capture: it returns the run's
// report (byte-identical to an unrecorded run — observation does not
// perturb the simulation) plus the recorded trace. Read-only queries
// are captured record-pure and the report derived by one replay;
// updates record during a live run.
func (s *System) RunColdRecorded(query string) (*Report, *trace.QueryTrace) {
	runs := s.SameQueryAllProcs(query)
	if s.replayable(runs) {
		rep := &Report{Rows: make([]int, len(runs))}
		snap := s.snapshotLockState()
		rec := s.recordPure(s.queryBodies(runs, rep))
		snap.restore(s.Mem)
		tr := s.queryTrace(query, rep.Rows, rec)
		s.ColdStart()
		if err := s.replayStreams(tr); err != nil {
			panic(fmt.Sprintf("core: replaying just-captured %s: %v", query, err))
		}
		s.finishReport(rep)
		return rep, tr
	}
	rec := trace.NewRecorder(s.Mem.Nodes())
	s.Eng.Recorder = rec
	s.LockMgr.Tracer = lockTracer{rec: rec}
	rep := s.RunCold(query)
	s.Eng.Recorder = nil
	s.LockMgr.Tracer = nil
	return rep, s.queryTrace(query, rep.Rows, rec)
}

// queryTrace assembles the portable trace for a just-recorded run.
func (s *System) queryTrace(query string, rows []int, rec *trace.Recorder) *trace.QueryTrace {
	return &trace.QueryTrace{
		Query: query,
		Scale: s.Cfg.DB.ScaleFactor,
		Seed:  s.Cfg.DB.Seed,
		Nodes: s.Mem.Nodes(),

		BusyPerAccess: s.Cfg.Sched.BusyPerAccess,
		SpinBackoff:   s.Cfg.Sched.SpinBackoff,
		LockCap:       s.LockMgr.TableCap(),

		Layout:  s.Mem.Layout(),
		Rows:    append([]int(nil), rows...),
		Streams: rec.Streams(),
	}
}

// replayBatch is the decode unit: events per decoded batch. At 48 bytes
// per sched.ReplayEvent, 512 events is 24KB per processor, so every
// processor's batch stays in the host's L2 between being decoded and
// being replayed; 8192-event batches (384KB each) fell out of it.
const replayBatch = 512

// Skeleton-arena reuse counters (package-wide, atomic), surfaced by
// the experiments layer.
var (
	arenaHits   atomic.Uint64
	arenaMisses atomic.Uint64
)

// ReplayStats is a snapshot of the replay counters.
type ReplayStats struct {
	ArenaHits   uint64
	ArenaMisses uint64
}

// ReadReplayStats returns the process-wide replay counters.
func ReadReplayStats() ReplayStats {
	return ReplayStats{ArenaHits: arenaHits.Load(), ArenaMisses: arenaMisses.Load()}
}

// decodeInto fills out with the cursor's next batch in the engine's
// replay form: data references and busy time decode directly (the
// fused fast path inside DecodeReplayBatch), spin acquire/release stay
// symbolic (the driver re-spins them live), and lock-manager operations
// become closures the driver runs as real code against the replay's
// lock state.
func decodeInto(cur *trace.Cursor, lm *lockmgr.Manager, out []sched.ReplayEvent) (int, error) {
	return cur.DecodeReplayBatch(out, func(acquire bool, relID uint32, level uint8, page uint32, mode uint8) func(*sched.Proc) {
		tag := lockmgr.Tag{RelID: relID, Level: lockmgr.Level(level), Page: page}
		m := lockmgr.Mode(mode)
		if acquire {
			return func(p *sched.Proc) { lm.Acquire(p, p.ID(), tag, m) }
		}
		return func(p *sched.Proc) { lm.Release(p, p.ID(), tag, m) }
	})
}

// Profiler label sets for the replay driver's goroutine: decoding runs
// inline between event batches, so syncSource switches the "stage"
// label around each decode to keep the profile's decode/replay split.
var (
	decodeLabels = pprof.WithLabels(context.Background(), pprof.Labels("stage", "decode"))
	replayLabels = pprof.WithLabels(context.Background(), pprof.Labels("stage", "replay"))
)

// syncSource decodes one processor's stream inline on the driver
// goroutine, batch-at-a-time into one reused buffer.
func syncSource(cur *trace.Cursor, lm *lockmgr.Manager) sched.ReplaySource {
	out := make([]sched.ReplayEvent, replayBatch)
	var perr error
	return func() ([]sched.ReplayEvent, error) {
		if perr != nil {
			return nil, perr
		}
		pprof.SetGoroutineLabels(decodeLabels)
		n, err := decodeInto(cur, lm, out)
		pprof.SetGoroutineLabels(replayLabels)
		if n == 0 {
			return nil, err
		}
		perr = err // deliver the decoded prefix first, surface err next call
		return out[:n], nil
	}
}

// runReplay drives one flat replay of src's streams on eng, decoding
// inline: the single-goroutine sched driver is the only replay path,
// and host parallelism comes from running independent replay jobs
// side by side.
func runReplay(eng *sched.Engine, lm *lockmgr.Manager, src trace.Source, nodes int) error {
	srcs := make([]sched.ReplaySource, nodes)
	for i := range srcs {
		srcs[i] = syncSource(src.StreamCursor(i), lm)
	}
	var err error
	withStage("replay", func() { err = eng.RunReplay(srcs) })
	return err
}

// replayOn drives a full replay on an engine whose machine and memory
// are already prepared (cold caches, zeroed/quiesced lock state).
func replayOn(eng *sched.Engine, lm *lockmgr.Manager, src trace.Source) (*Report, error) {
	meta := src.Meta()
	rep := &Report{Rows: append([]int(nil), meta.Rows...)}
	for i := 0; i < meta.Nodes; i++ {
		// Phase segments carry per-processor labels; single-query
		// traces label every processor with the one query.
		if len(meta.ProcQueries) == meta.Nodes {
			rep.Queries = append(rep.Queries, meta.ProcQueries[i])
		} else {
			rep.Queries = append(rep.Queries, meta.Query)
		}
	}
	if err := runReplay(eng, lm, src, meta.Nodes); err != nil {
		return nil, fmt.Errorf("core: replaying %s: %w", meta.Query, err)
	}
	for _, p := range eng.Procs() {
		rep.PerProc = append(rep.PerProc, p.Breakdown())
		rep.Clocks = append(rep.Clocks, p.Clock())
	}
	rep.Machine = *eng.Machine().Stats()
	return rep, nil
}

// ReplayTrace replays a recorded query under the given machine
// configuration on a reconstructed skeleton system — the layout's
// regions and page categories without any data contents — and returns
// the report a fresh execution of that configuration would produce.
// The replayed streams must come from the same (query, scale, seed);
// the configuration may vary in any way that leaves the reference
// stream invariant (cache geometry, prefetching, write buffering — not
// node count). src may be a decoded *trace.QueryTrace or a streaming
// *trace.Reader; skeleton systems are arena-pooled and reset between
// replays of the same layout.
func ReplayTrace(src trace.Source, mcfg machine.Config) (*Report, error) {
	return ReplayTraceWith(src, mcfg, nil)
}

// ReplayTraceWith is ReplayTrace with an attachment hook called after
// the skeleton is assembled and before the replay runs — the locality
// analyzer installs its Tracer this way to analyze a saved trace
// without re-running the executor.
func ReplayTraceWith(src trace.Source, mcfg machine.Config, attach func(*sched.Engine, *simm.Memory)) (*Report, error) {
	meta := src.Meta()
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	if mcfg.Nodes != meta.Nodes {
		return nil, fmt.Errorf("core: trace recorded on %d nodes, config has %d", meta.Nodes, mcfg.Nodes)
	}
	if len(meta.Streams) != meta.Nodes {
		return nil, fmt.Errorf("core: trace has %d streams for %d nodes", len(meta.Streams), meta.Nodes)
	}
	sk, err := acquireSkeleton(meta.Layout)
	if err != nil {
		return nil, err
	}
	mach, err := machine.NewReusing(mcfg, sk.mem, sk.mach)
	if err != nil {
		return nil, err
	}
	sk.mach = mach
	scfg := sched.Config{BusyPerAccess: meta.BusyPerAccess, SpinBackoff: meta.SpinBackoff}
	eng := sched.New(scfg, sk.mem, mach)
	lm, err := lockmgr.Attach(sk.mem, meta.LockCap)
	if err != nil {
		return nil, err
	}
	if attach != nil {
		attach(eng, sk.mem)
	}
	rep, err := replayOn(eng, lm, src)
	if err != nil {
		return nil, err
	}
	releaseSkeleton(sk)
	return rep, nil
}

// ReplayCold replays a recorded query on this system's current machine
// configuration, reusing the live address space and lock manager: the
// replay analogue of RunCold for the ablation sweeps, whose points
// share one system's history. The system's lock state must be
// quiescent (every completed run releases all locks), which replay then
// mutates exactly as the recorded run's operations do.
func (s *System) ReplayCold(tr *trace.QueryTrace) (*Report, error) {
	if tr.Nodes != s.Mem.Nodes() {
		return nil, fmt.Errorf("core: trace recorded on %d nodes, system has %d", tr.Nodes, s.Mem.Nodes())
	}
	if len(tr.Streams) != tr.Nodes {
		return nil, fmt.Errorf("core: trace has %d streams for %d nodes", len(tr.Streams), tr.Nodes)
	}
	s.ColdStart()
	return replayOn(s.Eng, s.LockMgr, tr)
}
