package sched

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/simm"
	"repro/internal/stats"
)

// The TestEpoch* scenarios below stress the boundaries of a replay
// epoch: the stretch a processor runs as the (clock, id) minimum before
// its clock passes the horizon and the driver hands the turn to the next
// processor. Each scenario is replayed by RunReplay and executed live by
// Run from the same events, and the two must agree exactly.

// sliceSource returns a ReplaySource over evs that recycles one backing
// array across batches, exercising the driver contract that a batch is
// dead once the next one is requested.
func sliceSource(evs []ReplayEvent, batch int) ReplaySource {
	buf := make([]ReplayEvent, 0, batch)
	i := 0
	return func() ([]ReplayEvent, error) {
		buf = buf[:0]
		for len(buf) < batch && i < len(evs) {
			buf = append(buf, evs[i])
			i++
		}
		return buf, nil
	}
}

type replayResult struct {
	Clocks []int64
	Bds    []stats.CycleBreakdown
	Mach   machine.Stats
}

func resultOf(e *Engine) replayResult {
	res := replayResult{Mach: *e.Machine().Stats()}
	for _, p := range e.Procs() {
		res.Clocks = append(res.Clocks, p.Clock())
		res.Bds = append(res.Bds, p.Breakdown())
	}
	return res
}

// liveBody executes evs through the traced accessors, the way the code
// that recorded them did.
func liveBody(evs []ReplayEvent) func(*Proc) {
	return func(p *Proc) {
		for i := range evs {
			ev := &evs[i]
			switch ev.Kind {
			case ReplayRef:
				if ev.Write {
					p.write(ev.Addr, ev.Size)
				} else {
					p.read(ev.Addr, ev.Size)
				}
			case ReplayBusy:
				p.Busy(ev.N)
			case ReplaySpinAcquire:
				p.Acquire(SpinLock{Addr: ev.Addr})
			case ReplaySpinRelease:
				p.Release(SpinLock{Addr: ev.Addr})
			case ReplayOp:
				ev.Op(p)
			}
		}
	}
}

// runLive executes the generated streams with Run on a fresh rig.
func runLive(t *testing.T, nodes int, gen func(id int, data, lock simm.Addr) []ReplayEvent) replayResult {
	t.Helper()
	e, data, lock := rig(t, nodes)
	bodies := make([]func(*Proc), nodes)
	for i := range bodies {
		if evs := gen(i, data, lock); evs != nil {
			bodies[i] = liveBody(evs)
		}
	}
	e.Run(bodies)
	return resultOf(e)
}

// runStreams replays the generated streams with RunReplay on a fresh
// rig, serving each source in batches of the given size.
func runStreams(t *testing.T, nodes, batch int, gen func(id int, data, lock simm.Addr) []ReplayEvent) replayResult {
	t.Helper()
	e, data, lock := rig(t, nodes)
	srcs := make([]ReplaySource, nodes)
	for i := range srcs {
		if evs := gen(i, data, lock); evs != nil {
			srcs[i] = sliceSource(evs, batch)
		}
	}
	if err := e.RunReplay(srcs); err != nil {
		t.Fatal(err)
	}
	return resultOf(e)
}

// requireEqual executes gen's streams live and replays them at several
// source batch sizes, and requires identical clocks, breakdowns, and
// machine stats. It returns the live result so callers can assert the
// behavior the scenario is built to provoke.
func requireEqual(t *testing.T, nodes int, gen func(id int, data, lock simm.Addr) []ReplayEvent) replayResult {
	t.Helper()
	live := runLive(t, nodes, gen)
	for _, batch := range []int{1, 7, 1 << 20} {
		if got := runStreams(t, nodes, batch, gen); !reflect.DeepEqual(live, got) {
			t.Errorf("batch=%d: replay diverges from live execution\nlive:   %+v\nreplay: %+v", batch, live, got)
		}
	}
	return live
}

// pageStride spaces per-processor working sets onto disjoint pages.
func pageStride(id int, data simm.Addr) simm.Addr {
	return data + simm.Addr(id)*simm.PageSize
}

// syncCycles sums MSync across processors.
func syncCycles(r replayResult) (n uint64) {
	for _, bd := range r.Bds {
		n += bd.MSync
	}
	return n
}

// TestEpochDisjointRunsParallel: processors touching disjoint pages for
// thousands of cycles interleave in many short epochs; every processor
// must finish its stream and the replay must equal live execution.
func TestEpochDisjointRunsParallel(t *testing.T) {
	gen := func(id int, data, lock simm.Addr) []ReplayEvent {
		var evs []ReplayEvent
		base := pageStride(id, data)
		for k := 0; k < 4000; k++ {
			evs = append(evs, ReplayEvent{
				Kind:  ReplayRef,
				Addr:  base + simm.Addr(k%500)*8,
				Size:  8,
				Write: k%5 == 0,
			})
		}
		return evs
	}
	res := requireEqual(t, 4, gen)
	for id, bd := range res.Bds {
		if bd.Busy < 4000 {
			t.Errorf("proc %d: busy %d, want at least one cycle per reference", id, bd.Busy)
		}
	}
}

// TestEpochConflictWriteReadOverlap: a page written by one processor
// and read by its neighbors in the same clock range must replay exactly,
// including the coherence misses the sharing causes.
func TestEpochConflictWriteReadOverlap(t *testing.T) {
	gen := func(id int, data, lock simm.Addr) []ReplayEvent {
		var evs []ReplayEvent
		for k := 0; k < 2000; k++ {
			// Everyone hammers page 0 the whole run: every epoch sees
			// the write/read overlap.
			evs = append(evs, ReplayEvent{
				Kind:  ReplayRef,
				Addr:  data + simm.Addr(k%100)*8,
				Size:  8,
				Write: id == 0 && k%3 == 0,
			})
		}
		return evs
	}
	res := requireEqual(t, 4, gen)
	for id := 1; id < 4; id++ {
		if res.Clocks[id] <= 2000*DefaultConfig().BusyPerAccess {
			t.Errorf("proc %d: clock %d shows no stall from the writer's invalidations", id, res.Clocks[id])
		}
	}
}

// TestEpochAdjacentWindowHandoff: processor 0 writes a page early and
// goes quiet; processor 1 reads the same page much later. The second
// processor's reads must see the coherence state the writes left behind
// (miss classification equality catches any skew).
func TestEpochAdjacentWindowHandoff(t *testing.T) {
	gen := func(id int, data, lock simm.Addr) []ReplayEvent {
		var evs []ReplayEvent
		if id == 0 {
			for k := 0; k < 300; k++ {
				evs = append(evs, ReplayEvent{Kind: ReplayRef, Addr: data + simm.Addr(k%64)*8, Size: 8, Write: true})
			}
			evs = append(evs, ReplayEvent{Kind: ReplayBusy, N: 1 << 20})
			for k := 0; k < 2000; k++ {
				evs = append(evs, ReplayEvent{Kind: ReplayRef, Addr: pageStride(2, data) + simm.Addr(k%64)*8, Size: 8})
			}
		} else {
			evs = append(evs, ReplayEvent{Kind: ReplayBusy, N: 1 << 18})
			for k := 0; k < 2000; k++ {
				evs = append(evs, ReplayEvent{Kind: ReplayRef, Addr: data + simm.Addr(k%64)*8, Size: 8})
			}
		}
		return evs
	}
	requireEqual(t, 2, gen)
}

// TestEpochLockOpForcesSerial: a lock-manager op runs arbitrary live
// code on its own goroutine mid-replay, and op-heavy streams must still
// replay exactly.
func TestEpochLockOpForcesSerial(t *testing.T) {
	gen := func(id int, data, lock simm.Addr) []ReplayEvent {
		var evs []ReplayEvent
		base := pageStride(id, data)
		for k := 0; k < 1500; k++ {
			evs = append(evs, ReplayEvent{Kind: ReplayRef, Addr: base + simm.Addr(k%64)*8, Size: 8})
			if k%40 == 0 {
				evs = append(evs, ReplayEvent{Kind: ReplayOp, Op: func(p *Proc) {
					p.Busy(17)
					p.Read64(pageStride(p.id, data))
				}})
			}
		}
		return evs
	}
	requireEqual(t, 4, gen)
}

// TestEpochSingleToucherSpins: processors spinning on their own private
// locks never contend, and the MSync attribution of the uncontended
// acquires and releases must match live execution.
func TestEpochSingleToucherSpins(t *testing.T) {
	gen := func(id int, data, lock simm.Addr) []ReplayEvent {
		var evs []ReplayEvent
		word := pageStride(id, data) + 512
		for k := 0; k < 1200; k++ {
			evs = append(evs, ReplayEvent{Kind: ReplaySpinAcquire, Addr: word})
			evs = append(evs, ReplayEvent{Kind: ReplayRef, Addr: pageStride(id, data) + simm.Addr(k%64)*8, Size: 8, Write: k%7 == 0})
			evs = append(evs, ReplayEvent{Kind: ReplaySpinRelease, Addr: word})
		}
		return evs
	}
	if res := requireEqual(t, 4, gen); syncCycles(res) == 0 {
		t.Error("private-lock streams recorded no MSync")
	}
}

// TestEpochSharedSpinForcesSerial: two processors acquiring the same
// spinlock collide on it; the contended handoffs (spin iterations,
// release invalidations) must replay exactly.
func TestEpochSharedSpinForcesSerial(t *testing.T) {
	gen := func(id int, data, lock simm.Addr) []ReplayEvent {
		var evs []ReplayEvent
		for k := 0; k < 600; k++ {
			evs = append(evs, ReplayEvent{Kind: ReplaySpinAcquire, Addr: lock})
			evs = append(evs, ReplayEvent{Kind: ReplayRef, Addr: data + simm.Addr(k%32)*8, Size: 8, Write: true})
			evs = append(evs, ReplayEvent{Kind: ReplaySpinRelease, Addr: lock})
			evs = append(evs, ReplayEvent{Kind: ReplayBusy, N: 200})
		}
		return evs
	}
	res := requireEqual(t, 2, gen)
	for id, bd := range res.Bds {
		if bd.MSync == 0 {
			t.Errorf("proc %d: no MSync under a shared lock", id)
		}
	}
}

// TestEpochZeroLengthEpoch: empty streams, nil sources, and zero-cost
// events (Busy 0) must neither wedge the driver loop nor perturb the
// result.
func TestEpochZeroLengthEpoch(t *testing.T) {
	gen := func(id int, data, lock simm.Addr) []ReplayEvent {
		switch id {
		case 0:
			return nil // idle processor: nil source
		case 1:
			return []ReplayEvent{} // empty stream: immediate EOF
		case 2:
			// Zero-cost events only: the clock never advances.
			return []ReplayEvent{{Kind: ReplayBusy, N: 0}, {Kind: ReplayBusy, N: 0}}
		default:
			var evs []ReplayEvent
			for k := 0; k < 500; k++ {
				evs = append(evs, ReplayEvent{Kind: ReplayRef, Addr: pageStride(3, data) + simm.Addr(k%64)*8, Size: 8})
			}
			return evs
		}
	}
	res := requireEqual(t, 4, gen)
	for id := 0; id < 3; id++ {
		if res.Clocks[id] != 0 {
			t.Errorf("proc %d: clock %d, want 0 for a stream without cost", id, res.Clocks[id])
		}
	}
}

// TestEpochUnevenEOF: one stream ends orders of magnitude before the
// other, so the driver crosses from two-processor turns into a lone
// processor running to the end of its stream.
func TestEpochUnevenEOF(t *testing.T) {
	gen := func(id int, data, lock simm.Addr) []ReplayEvent {
		n := 50
		if id == 0 {
			n = 5000
		}
		var evs []ReplayEvent
		for k := 0; k < n; k++ {
			evs = append(evs, ReplayEvent{Kind: ReplayRef, Addr: pageStride(id, data) + simm.Addr(k%64)*8, Size: 8, Write: k%9 == 0})
		}
		return evs
	}
	res := requireEqual(t, 2, gen)
	if res.Clocks[0] <= res.Clocks[1] {
		t.Errorf("long stream clock %d not past short stream clock %d", res.Clocks[0], res.Clocks[1])
	}
}

// TestEpochRetagMidStream: a lock-manager op re-tags a page the
// processors keep touching, the way the buffer manager re-tags a buffer
// block when it loads a different kind of page. The replay driver's
// page-category memo must notice, so stalls after the re-tag are
// charged to the new category exactly as live execution charges them.
func TestEpochRetagMidStream(t *testing.T) {
	gen := func(id int, data, lock simm.Addr) []ReplayEvent {
		page := pageStride(1, data)
		var evs []ReplayEvent
		// Every processor warms its memo on the page, then walks
		// fresh lines of it after processor 0's op re-tags it.
		for k := 0; k < 32; k++ {
			evs = append(evs, ReplayEvent{Kind: ReplayRef, Addr: page + simm.Addr(k*32), Size: 8})
		}
		if id == 0 {
			evs = append(evs, ReplayEvent{Kind: ReplayOp, Op: func(p *Proc) {
				p.Busy(5)
				p.eng.mem.SetPageCategory(page, simm.PageSize, simm.CatIndex)
			}})
		} else {
			evs = append(evs, ReplayEvent{Kind: ReplayBusy, N: 4000})
		}
		for k := 32; k < 128; k++ {
			evs = append(evs, ReplayEvent{Kind: ReplayRef, Addr: page + simm.Addr(k*32), Size: 8, Write: k%4 == 0})
		}
		return evs
	}
	res := requireEqual(t, 4, gen)
	for id, bd := range res.Bds {
		if bd.Mem[simm.CatData] == 0 || bd.Mem[simm.CatIndex] == 0 {
			t.Errorf("proc %d: Data stall %d, Index stall %d; want both before and after the re-tag",
				id, bd.Mem[simm.CatData], bd.Mem[simm.CatIndex])
		}
	}
}
