package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simm"
)

// hotPathRig is a 4-node baseline-geometry machine pair over one address
// space with a Data region, an Index region, and a per-node private
// region, so scripts touch several categories and page boundaries.
type hotPathRig struct {
	mem                  *simm.Memory
	data, index, priv    simm.Addr
	fast, general        *Machine
	nodes, dataSpan, hot int
}

func newHotPathRig(t testing.TB, cfg Config) *hotPathRig {
	t.Helper()
	mem := simm.New(cfg.Nodes)
	r := &hotPathRig{
		mem:   mem,
		data:  mem.AllocRegion("data", 1<<20, simm.CatData, simm.AnyNode).Base,
		index: mem.AllocRegion("index", 64<<10, simm.CatIndex, 0).Base,
		priv:  mem.AllocRegion("priv", 64<<10, simm.CatPriv, simm.AnyNode).Base,
		nodes: cfg.Nodes, dataSpan: 128 << 10, hot: 6 << 10,
	}
	var err error
	if r.fast, err = New(cfg, mem); err != nil {
		t.Fatal(err)
	}
	if r.general, err = New(cfg, mem); err != nil {
		t.Fatal(err)
	}
	return r
}

// scriptOp is one step of a random reference script.
type scriptOp struct {
	node  int
	kind  int // 0 read, 1 write, 2 sync
	addr  simm.Addr
	size  int
	busy  int64 // cycles the node computes before the reference
	reset bool  // a warm-segment boundary: stats and clocks restart
}

// randomScript draws a seeded script that keeps each node's write
// buffer busy: stores are dense enough that most loads find undrained
// entries, and hot sets are small enough that most loads hit in L1. A
// few multi-line loads, scans (which trigger prefetching), syncs, and
// warm-segment clock resets ride along.
func (r *hotPathRig) randomScript(seed int64, n int) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	scan := make([]simm.Addr, r.nodes)
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		op := scriptOp{node: rng.Intn(r.nodes), size: 8}
		if i > 0 && i%3000 == 0 {
			op.reset = true
		}
		switch x := rng.Intn(100); {
		case x < 40: // private hot set
			op.addr = r.priv + simm.Addr(op.node*(8<<10)+rng.Intn(r.hot/8)*8)
		case x < 60: // shared hot set: coherence traffic
			op.addr = r.data + simm.Addr(rng.Intn(1<<10)/8*8)
		case x < 75: // index pages
			op.addr = r.index + simm.Addr(rng.Intn(r.hot/8)*8)
		default: // sequential scan through data
			op.addr = r.data + (4 << 10) + scan[op.node]%simm.Addr(r.dataSpan-(8<<10))
			scan[op.node] += 8
		}
		switch x := rng.Intn(100); {
		case x < 50:
			op.kind = 0
			if rng.Intn(20) == 0 {
				op.size = 8 + rng.Intn(120) // spans several lines
			}
		case x < 97:
			op.kind = 1
		default:
			op.kind = 2
			op.addr &^= 3
			op.size = 4
		}
		ops = append(ops, op)
	}
	return ops
}

// pathStats counts the fast-path cases a script provoked.
type pathStats struct {
	hitsWithWB   int // L1 hits served while the write buffer held stores
	drainedAtHit int // ... of which found drained stores to prune
}

// compareScript runs ops on the rig's two machines. Every load goes
// through ReadCat on one machine and straight into readLines on the
// other (after the same prefetch expiry ReadCat performs), so each L1
// hit the fast path serves is checked against the general path's
// answer: identical results at every step, identical stats at every
// warm-segment boundary and at the end.
func compareScript(t *testing.T, r *hotPathRig, ops []scriptOp) pathStats {
	t.Helper()
	var ps pathStats
	clock := make([]int64, r.nodes)
	for i, op := range ops {
		if op.reset {
			if !reflect.DeepEqual(r.fast.st, r.general.st) {
				t.Fatalf("step %d: stats diverge\nfast:    %+v\ngeneral: %+v", i, r.fast.st, r.general.st)
			}
			r.fast.ResetStats()
			r.general.ResetStats()
			for n := range clock {
				clock[n] = 0
			}
		}
		clock[op.node] += op.busy
		n, now := op.node, clock[op.node]
		cat := r.mem.CategoryOf(op.addr)
		var a, b AccessResult
		switch op.kind {
		case 0:
			nd := &r.fast.nodes[n]
			if first := uint64(op.addr) &^ (nd.l1.lineSize - 1); uint64(op.addr)+uint64(op.size) <= first+nd.l1.lineSize &&
				nd.pfReady.len() == 0 && nd.l1.lookup(first) && len(nd.wb) > 0 {
				ps.hitsWithWB++
				if nd.wb[0].done <= now {
					ps.drainedAtHit++
				}
			}
			a = r.fast.ReadCat(n, op.addr, op.size, now, cat)
			if g := &r.general.nodes[n]; g.pfReady.len() > 0 {
				g.expirePrefetches(now)
			}
			b = r.general.readLines(n, op.addr, op.size, now, cat)
		case 1:
			a = r.fast.WriteCat(n, op.addr, op.size, now, cat)
			b = r.general.WriteCat(n, op.addr, op.size, now, cat)
		case 2:
			a = r.fast.Sync(n, op.addr, now)
			b = r.general.Sync(n, op.addr, now)
		}
		if a != b {
			t.Fatalf("step %d (%+v at %d): fast path %+v, general path %+v", i, op, now, a, b)
		}
		clock[n] += 3 + a.Stall
	}
	if !reflect.DeepEqual(r.fast.st, r.general.st) {
		t.Errorf("final stats diverge\nfast:    %+v\ngeneral: %+v", r.fast.st, r.general.st)
	}
	return ps
}

// TestReadFastPathMatchesGeneralPath checks the L1 fast path against
// the general path over a dense random script, with prefetching off
// and on.
func TestReadFastPathMatchesGeneralPath(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		cfg := Baseline()
		cfg.PrefetchData = prefetch
		r := newHotPathRig(t, cfg)
		ps := compareScript(t, r, r.randomScript(7, 30000))
		// The script must actually provoke the cases under test.
		if ps.hitsWithWB < 1000 || ps.drainedAtHit < 100 {
			t.Errorf("prefetch=%v: only %d L1 hits with a non-empty write buffer (%d with a drained head)", prefetch, ps.hitsWithWB, ps.drainedAtHit)
		}
		if prefetch && r.fast.st.Prefetches == 0 {
			t.Error("prefetching script issued no prefetches")
		}
	}
}

// TestReadFastPathPrunesBeforeClockReset pins why the fast path still
// prunes the write buffer. A warm-cache segment restarts the clocks
// below the drain times of stores it never probed for, so a store that
// had drained at the last L1 hit but was left in the buffer would count
// against the next segment's capacity and stall it.
func TestReadFastPathPrunesBeforeClockReset(t *testing.T) {
	r := newHotPathRig(t, Baseline())
	var ops []scriptOp
	for i := 0; i < r.fast.cfg.WriteBufEntries; i++ {
		ops = append(ops, scriptOp{kind: 1, addr: r.priv + simm.Addr(i*64), size: 8})
	}
	// Fill one line, then hit it long after every store has drained.
	ops = append(ops,
		scriptOp{kind: 0, addr: r.index, size: 8},
		scriptOp{kind: 0, addr: r.index, size: 8, busy: 1 << 20},
		scriptOp{kind: 1, addr: r.priv + (32 << 10), size: 8, reset: true})
	if ps := compareScript(t, r, ops); ps.drainedAtHit != 1 {
		t.Fatalf("script provoked %d fast-path hits over drained stores, want 1", ps.drainedAtHit)
	}
	if r.fast.st.WBOverflows != 0 {
		t.Errorf("the first store after the reset overflowed the write buffer")
	}
}

// TestHotPathAllocationFree is the zero-allocations-per-reference
// contract of the memory model: once the machine is warm, a steady mix
// of loads and stores that keeps overflowing and draining the write
// buffer allocates nothing.
func TestHotPathAllocationFree(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		cfg := Baseline()
		cfg.PrefetchData = prefetch
		r := newHotPathRig(t, cfg)
		m := r.fast
		ops := r.randomScript(11, 4000)
		clock := make([]int64, r.nodes)
		var overflows uint64
		run := func() {
			before := m.st.WBOverflows
			for _, op := range ops {
				n, now := op.node, clock[op.node]
				var res AccessResult
				switch op.kind {
				case 0:
					res = m.Read(n, op.addr, op.size, now)
				case 1:
					res = m.Write(n, op.addr, op.size, now)
				case 2:
					res = m.Sync(n, op.addr, now)
				}
				clock[n] += 1 + res.Stall
			}
			overflows = m.st.WBOverflows - before
		}
		// Warm up: every table reaches its working-set size, the
		// scans wrap around their region, and the write buffers reach
		// their high-water mark.
		for i := 0; i < 300; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("prefetch=%v: %.1f allocations per %d references, want 0", prefetch, allocs, len(ops))
		}
		if overflows == 0 {
			t.Errorf("prefetch=%v: the mix never overflowed the write buffer", prefetch)
		}
	}
}
