// Package sched is the execution-driven simulation engine — the role
// Mint plays in the paper. Each simulated processor runs real Go code
// (the database engine) as a coroutine; a global scheduler always
// resumes the processor with the smallest local clock, so every memory
// reference reaches the memory-system model in global timestamp order
// and the interleaving, lock contention, and coherence activity are
// deterministic and emergent.
package sched

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/simm"
	"repro/internal/stats"
)

// Config tunes the cost model of the processor front end.
type Config struct {
	// BusyPerAccess is the busy cycles charged per traced memory
	// reference. It stands in for the non-memory instructions between
	// references and for the private stack/static references that the
	// paper's scaled-down methodology assumes always hit (Section 4.2,
	// correction two).
	BusyPerAccess int64
	// SpinBackoff is the busy-wait cost of one spin iteration on a
	// held metalock.
	SpinBackoff int64
}

// DefaultConfig returns the calibrated front-end cost model.
func DefaultConfig() Config {
	return Config{BusyPerAccess: 3, SpinBackoff: 50}
}

// Engine coordinates the simulated processors.
//
// Scheduling is a direct baton pass rather than a central scheduler
// goroutine: the running processor owns the baton, and when its clock
// passes the runnable horizon it repositions itself in a small ring of
// runnable processors sorted by (clock, id). If it is still the
// minimum it just refreshes its horizon and keeps running — no channel
// operation, no goroutine switch. Only when it actually loses the
// min-clock race does it wake the new minimum and park, which costs a
// single handoff instead of the two channel operations per yield (and
// two goroutine switches) of a scheduler-in-the-middle design. Exactly
// one goroutine runs at a time and every handoff synchronizes through
// a channel, so the interleaving is identical to the old engine's and
// race-detector clean.
type Engine struct {
	cfg   Config
	mem   *simm.Memory
	mach  *machine.Machine
	procs []*Proc
	// ring is the runnable set, sorted ascending by (clock, id); the
	// running processor is always ring[0]. Only the running processor
	// (or, between runs, the caller of Run) touches it.
	ring []*Proc
	// finished receives every processor that completes its body; Run
	// counts completions and re-raises panics.
	finished chan *Proc
	// flat is set while RunReplay's single-goroutine driver owns the
	// ring; flatCh is how a lock-op goroutine yields the baton back to
	// it (see RunReplay).
	flat   bool
	flatCh chan *Proc

	// Tracer, when set, observes every traced reference in issue order
	// (the address-trace methodology of the paper's Section 4). It runs
	// inside the simulation and must not touch simulated state.
	Tracer func(proc int, a simm.Addr, size int, write bool)

	// Recorder, when set, observes the engine-level events a trace
	// capture needs to reproduce a run without the executor: data
	// references, explicit busy time, and spinlock acquire/release
	// boundaries (recorded as operations, not as their constituent
	// probes, so a replay under a different memory configuration re-spins
	// them live). Like Tracer it runs inside the simulation and must not
	// touch simulated state.
	Recorder Recorder

	// RecordPure, set together with Recorder, turns a run into a pure
	// capture: every traced accessor records its event and returns
	// before touching the timing model — no busy charge, no machine
	// access, no clock advance, no yield. With clocks frozen the sorted
	// ring degenerates to sequential execution (the head never passes
	// its horizon), so a record-pure Run costs zero goroutine handoffs;
	// spinlocks reduce to their uncontended store (correct because
	// execution is serial) and lock-manager operations still execute
	// their real code. The captured streams equal a live recording's —
	// reference streams are interleaving-invariant for the replayable
	// workloads — and the run's report is then derived by replaying
	// them. The flag is consulted only inside the Recorder != nil
	// branches, so unrecorded runs pay nothing for it.
	RecordPure bool
}

// Recorder receives the engine-level event stream of a recorded run.
// Implementations must treat the calls as read-only observations.
type Recorder interface {
	// Ref observes one traced data reference.
	Ref(proc int, a simm.Addr, size int, write bool)
	// BusyEvent observes an explicit Busy(n) charge.
	BusyEvent(proc int, n int64)
	// SpinAcquire observes entry to a spinlock acquisition (before any
	// spinning happens).
	SpinAcquire(proc int, a simm.Addr)
	// SpinRelease observes a spinlock release.
	SpinRelease(proc int, a simm.Addr)
}

// New creates an engine with one processor per machine node.
func New(cfg Config, mem *simm.Memory, mach *machine.Machine) *Engine {
	if cfg.BusyPerAccess < 1 {
		panic("sched: BusyPerAccess must be at least 1")
	}
	e := &Engine{
		cfg:  cfg,
		mem:  mem,
		mach: mach,
	}
	for i := 0; i < mach.Config().Nodes; i++ {
		e.procs = append(e.procs, &Proc{
			id:   i,
			eng:  e,
			park: make(chan struct{}, 1),
		})
	}
	return e
}

// Procs returns the simulated processors.
func (e *Engine) Procs() []*Proc { return e.procs }

// Mem returns the simulated address space.
func (e *Engine) Mem() *simm.Memory { return e.mem }

// Machine returns the memory-system model.
func (e *Engine) Machine() *machine.Machine { return e.mach }

const horizonMax = int64(1<<63 - 1)

// Run executes one body per processor to completion, interleaving them
// in simulated-time order. Bodies may be nil for idle processors.
// Clocks and per-processor breakdowns accumulate across calls, so a
// sequence of Runs models back-to-back queries (the warm-cache setups).
func (e *Engine) Run(bodies []func(*Proc)) {
	if len(bodies) != len(e.procs) {
		panic(fmt.Sprintf("sched: %d bodies for %d processors", len(bodies), len(e.procs)))
	}
	e.ring = e.ring[:0]
	for i, body := range bodies {
		if body == nil {
			continue
		}
		p := e.procs[i]
		p.done = false
		p.started = true
		p.panicVal = nil
		e.ringInsert(p)
		go func(p *Proc, body func(*Proc)) {
			defer func() {
				p.panicVal = recover()
				p.done = true
				p.complete()
			}()
			<-p.park
			body(p)
		}(p, body)
	}
	active := len(e.ring)
	if active == 0 {
		return
	}
	e.finished = make(chan *Proc, active)
	e.wakeHead()
	for active > 0 {
		q := <-e.finished
		active--
		if q.panicVal != nil {
			// Re-raise a simulated processor's panic in the caller.
			// Sibling processors stay parked; a panic is a fatal
			// configuration or engine bug.
			panic(q.panicVal)
		}
	}
}

// ringInsert adds p to the runnable ring, keeping it sorted ascending
// by (clock, id).
func (e *Engine) ringInsert(p *Proc) {
	i := len(e.ring)
	e.ring = append(e.ring, p)
	for i > 0 && less(p, e.ring[i-1]) {
		e.ring[i] = e.ring[i-1]
		i--
	}
	e.ring[i] = p
}

// less orders runnable processors by (clock, id): the global simulated-
// time order, with processor id as the deterministic tie-break.
func less(a, b *Proc) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

// wakeHead hands the baton to the ring minimum after refreshing its
// horizon (the second-smallest runnable clock: it may run ahead until
// its clock passes that without violating global order).
func (e *Engine) wakeHead() {
	h := e.ring[0]
	if len(e.ring) > 1 {
		h.horizon = e.ring[1].clock
	} else {
		h.horizon = horizonMax
	}
	h.park <- struct{}{}
}

// reschedule is called by the running processor (ring[0]) once its
// clock has passed its horizon: it re-sorts itself into the ring and
// either keeps running with a refreshed horizon — the common case,
// costing no synchronization at all — or wakes the new minimum and
// parks until it wins the clock race again.
func (p *Proc) reschedule() {
	e := p.eng
	// Bubble p (at ring[0]) right to its sorted position.
	i := 0
	for i+1 < len(e.ring) && less(e.ring[i+1], p) {
		e.ring[i] = e.ring[i+1]
		i++
	}
	e.ring[i] = p
	if i == 0 {
		if len(e.ring) > 1 {
			p.horizon = e.ring[1].clock
		} else {
			p.horizon = horizonMax
		}
		return
	}
	if e.flat {
		// Flat replay: the driver owns scheduling. Hand it the baton;
		// it resumes this processor once it is the minimum again.
		e.flatCh <- p
		<-p.park
		return
	}
	e.wakeHead()
	<-p.park
}

// complete retires the running processor from the ring and notifies
// Run; on normal completion it passes the baton to the next minimum.
// After a panic the baton is deliberately dropped — Run re-raises in
// the caller and the siblings stay parked, exactly the fatal-error
// semantics the engine has always had.
func (p *Proc) complete() {
	e := p.eng
	// p is ring[0]: it held the baton. All ring accesses must precede
	// the finished send — once Run observes the last completion it may
	// rebuild the ring for a subsequent Run.
	copy(e.ring, e.ring[1:])
	e.ring = e.ring[:len(e.ring)-1]
	if p.panicVal == nil && len(e.ring) > 0 {
		e.wakeHead()
	}
	e.finished <- p
}

// AlignClocks advances every processor's clock to the current maximum
// (idle waiting at a barrier). Multi-round stream experiments align
// rounds this way so one round's stragglers do not overlap the next
// round's measurement in simulated time.
func (e *Engine) AlignClocks() {
	var max int64
	for _, p := range e.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	for _, p := range e.procs {
		p.clock = max
	}
}

// ResetBreakdowns clears per-processor time breakdowns and clocks
// (used when an experiment measures only the second of two runs).
func (e *Engine) ResetBreakdowns() {
	for _, p := range e.procs {
		p.clock = 0
		p.bd = stats.CycleBreakdown{}
	}
}

// TotalBreakdown sums the per-processor breakdowns.
func (e *Engine) TotalBreakdown() stats.CycleBreakdown {
	var t stats.CycleBreakdown
	for _, p := range e.procs {
		t.AddAll(&p.bd)
	}
	return t
}

// Proc is one simulated processor. All the database engine's memory
// traffic flows through its Read/Write methods, which both move the
// bytes and charge simulated time.
type Proc struct {
	id       int
	eng      *Engine
	clock    int64
	horizon  int64
	bd       stats.CycleBreakdown
	park     chan struct{} // baton: buffered(1), one token per wake
	started  bool
	done     bool
	inSync   bool
	panicVal interface{}

	// Flat-replay driver state: mid-spin acquire progress and whether a
	// lock-op goroutine is executing on this processor's behalf.
	spinAddr simm.Addr
	spinning bool
	inOp     bool

	// Flat-replay page-category memo: cat is the category of page
	// catPage as of memory generation catGen. Consecutive references
	// mostly stay on one page, so flatRef resolves the category without
	// a page-table walk; a SetPageCategory re-tag changes the generation
	// and forces a fresh lookup.
	catPage uint64
	catGen  uint64
	cat     simm.Category
}

// ID returns the processor (node) number.
func (p *Proc) ID() int { return p.id }

// Clock returns the processor's local simulated time.
func (p *Proc) Clock() int64 { return p.clock }

// Breakdown returns the processor's accumulated time breakdown.
func (p *Proc) Breakdown() stats.CycleBreakdown { return p.bd }

// maybeYield re-enters the scheduling race once this processor has run
// past the next processor's clock. In the common case the processor is
// still the minimum and continues immediately without synchronizing.
func (p *Proc) maybeYield() {
	if p.clock > p.horizon {
		p.reschedule()
	}
}

// charge applies an access result to the processor's clock, attributing
// the stall to MSync while inside a spinlock acquire/release and to the
// touched data structure otherwise.
func (p *Proc) charge(res machine.AccessResult) {
	p.clock += res.Stall
	if p.inSync {
		p.bd.MSync += uint64(res.Stall)
	} else {
		p.bd.Mem[res.Cat] += uint64(res.Stall)
	}
}

func (p *Proc) preAccess() {
	p.bd.Busy += uint64(p.eng.cfg.BusyPerAccess)
	p.clock += p.eng.cfg.BusyPerAccess
}

func (p *Proc) read(a simm.Addr, size int) {
	if t := p.eng.Tracer; t != nil {
		t(p.id, a, size, false)
	}
	if r := p.eng.Recorder; r != nil {
		r.Ref(p.id, a, size, false)
		if p.eng.RecordPure {
			return
		}
	}
	p.preAccess()
	p.charge(p.eng.mach.Read(p.id, a, size, p.clock))
	p.maybeYield()
}

// readCat is read with the first byte's category already resolved by
// the combined load (see the Load*Cat accessors of simm.Memory).
func (p *Proc) readCat(a simm.Addr, size int, cat simm.Category) {
	if t := p.eng.Tracer; t != nil {
		t(p.id, a, size, false)
	}
	if r := p.eng.Recorder; r != nil {
		r.Ref(p.id, a, size, false)
		if p.eng.RecordPure {
			return
		}
	}
	p.preAccess()
	p.charge(p.eng.mach.ReadCat(p.id, a, size, p.clock, cat))
	p.maybeYield()
}

func (p *Proc) write(a simm.Addr, size int) {
	if t := p.eng.Tracer; t != nil {
		t(p.id, a, size, true)
	}
	if r := p.eng.Recorder; r != nil {
		r.Ref(p.id, a, size, true)
		if p.eng.RecordPure {
			return
		}
	}
	p.preAccess()
	p.charge(p.eng.mach.Write(p.id, a, size, p.clock))
	p.maybeYield()
}

func (p *Proc) writeCat(a simm.Addr, size int, cat simm.Category) {
	if t := p.eng.Tracer; t != nil {
		t(p.id, a, size, true)
	}
	if r := p.eng.Recorder; r != nil {
		r.Ref(p.id, a, size, true)
		if p.eng.RecordPure {
			return
		}
	}
	p.preAccess()
	p.charge(p.eng.mach.WriteCat(p.id, a, size, p.clock, cat))
	p.maybeYield()
}

// Busy charges n cycles of pure computation.
func (p *Proc) Busy(n int64) {
	if r := p.eng.Recorder; r != nil {
		r.BusyEvent(p.id, n)
		if p.eng.RecordPure {
			return
		}
	}
	p.bd.Busy += uint64(n)
	p.clock += n
	p.maybeYield()
}

// ReplayKind discriminates the events a replay source can produce.
type ReplayKind uint8

const (
	// ReplayRef is one recorded data reference (Addr/Size/Write).
	ReplayRef ReplayKind = iota
	// ReplayBusy charges N cycles of pure computation.
	ReplayBusy
	// ReplaySpinAcquire re-executes a spinlock acquisition at Addr live.
	ReplaySpinAcquire
	// ReplaySpinRelease re-executes a spinlock release at Addr.
	ReplaySpinRelease
	// ReplayOp runs Op — arbitrary recorded synchronization (a
	// lock-manager call) — on the processor via a real goroutine, since
	// it may need to interleave with other processors mid-operation.
	ReplayOp
)

// ReplayEvent is one event pulled from a replay source. Fields beyond
// Kind are valid per kind.
type ReplayEvent struct {
	Kind  ReplayKind
	Addr  simm.Addr
	Size  int
	Write bool
	N     int64
	Op    func(*Proc)
}

// ReplaySource supplies one processor's recorded events in batches. A
// call returns the next batch in stream order; an empty batch means end
// of stream. The driver fully consumes a returned batch before calling
// again, so sources may reuse the backing array: the inline decoder
// refills one buffer per processor.
type ReplaySource func() ([]ReplayEvent, error)

// RunReplay drives one recorded event source per processor through the
// unchanged timing model on a single goroutine. Sources may be nil for
// idle processors.
//
// Execution needs a coroutine per processor because the database code's
// control flow lives on real stacks, and every baton pass is a channel
// handoff plus two goroutine switches. A recorded stream has no stack:
// the driver below applies events from whichever processor is the
// (clock, id) minimum, replicating the traced accessors' exact charge
// sequences inline, so the handoff cost disappears. The scheduling rule
// is identical — the running processor keeps the baton until its clock
// strictly passes the second-smallest (reschedule's bubble, tie to the
// holder), so every machine access happens at the same global timestamp
// as under Run. The two live-synchronization cases keep their recorded
// yield boundaries: a spin acquire advances one test-and-test-and-set
// iteration per turn (Acquire's per-iteration yield point), and a
// lock-manager op runs real code on a goroutine that hands the baton
// back to the driver whenever it must yield mid-operation. Recorders
// are not consulted during replay.
func (e *Engine) RunReplay(srcs []ReplaySource) error {
	if len(srcs) != len(e.procs) {
		panic(fmt.Sprintf("sched: %d replay sources for %d processors", len(srcs), len(e.procs)))
	}
	// One batch in flight per processor; idx walks it event by event.
	type batchState struct {
		evs []ReplayEvent
		idx int
	}
	batches := make([]batchState, len(e.procs))
	e.ring = e.ring[:0]
	for i, src := range srcs {
		if src == nil {
			continue
		}
		p := e.procs[i]
		p.done = false
		p.started = true
		p.panicVal = nil
		p.spinning = false
		p.inOp = false
		p.catPage = noPage
		e.ringInsert(p)
	}
	if len(e.ring) == 0 {
		return nil
	}
	if e.flatCh == nil {
		e.flatCh = make(chan *Proc)
	}
	e.flat = true
	defer func() { e.flat = false }()
outer:
	for len(e.ring) > 0 {
		p := e.ring[0]
		// The horizon is the second-smallest runnable clock; it cannot
		// change while p runs (only the head advances), so refreshing it
		// every turn is equivalent to Run's refresh-on-reschedule.
		if len(e.ring) > 1 {
			p.horizon = e.ring[1].clock
		} else {
			p.horizon = horizonMax
		}
		switch {
		case p.inOp:
			// Resume the lock-op goroutine with the baton and wait for
			// it to yield again (mid-op, via reschedule) or finish.
			p.park <- struct{}{}
			q := <-e.flatCh
			if q.panicVal != nil {
				panic(q.panicVal)
			}
			continue
		case p.spinning:
			if p.flatSpinStep() {
				p.spinning = false
			}
		default:
			// Apply events in a tight loop while p stays the head
			// (p.clock <= p.horizon): the ring cannot change while p
			// runs, so re-selecting the head and refreshing the horizon
			// per event — what the pre-batch driver did by falling back
			// to the outer loop — is a per-event no-op this loop skips.
			// The batch cursor is read through locals, which stay in
			// registers across flatRef calls; bs mirrors them for the
			// next turn.
			bs := &batches[p.id]
			evs, idx := bs.evs, bs.idx
			for {
				if idx >= len(evs) {
					next, err := srcs[p.id]()
					if err != nil {
						return err
					}
					if len(next) == 0 {
						copy(e.ring, e.ring[1:])
						e.ring = e.ring[:len(e.ring)-1]
						continue outer
					}
					evs, idx = next, 0
					bs.evs = evs
				}
				ev := &evs[idx]
				idx++
				bs.idx = idx
				switch ev.Kind {
				case ReplayRef:
					p.flatRef(ev.Addr, ev.Size, ev.Write)
				case ReplayBusy:
					p.bd.Busy += uint64(ev.N)
					p.clock += ev.N
				case ReplaySpinAcquire:
					// The first spin iteration runs immediately, like
					// Acquire's loop entry.
					p.spinning, p.spinAddr = true, ev.Addr
					continue outer
				case ReplaySpinRelease:
					p.flatSpinRelease(ev.Addr)
				case ReplayOp:
					p.inOp = true
					go func(p *Proc, op func(*Proc)) {
						defer func() {
							p.panicVal = recover()
							p.inOp = false
							e.flatCh <- p
						}()
						<-p.park
						op(p)
					}(p, ev.Op)
					// Next turn dispatches the inOp branch: p is still
					// the head, so the op starts before anyone else
					// runs.
					continue outer
				}
				if p.clock > p.horizon {
					break
				}
			}
		}
		// The traced accessors end in maybeYield; mirror it (reschedule's
		// bubble, minus the parking — the driver simply picks the new
		// head next turn).
		if p.clock > p.horizon {
			i := 0
			for i+1 < len(e.ring) && less(e.ring[i+1], p) {
				e.ring[i] = e.ring[i+1]
				i++
			}
			e.ring[i] = p
		}
	}
	return nil
}

// noPage is a page number no address maps to: the memo's empty state.
const noPage = ^uint64(0)

// flatRef re-issues one recorded data reference on the driver's
// goroutine: the traced accessors' exact busy charge, timing-model
// access, and stall attribution, minus the yield (the driver re-sorts
// after every event). The first byte's category comes from the
// processor's page-category memo, which is what Read and Write would
// look up.
func (p *Proc) flatRef(a simm.Addr, size int, write bool) {
	if t := p.eng.Tracer; t != nil {
		t(p.id, a, size, write)
	}
	p.preAccess()
	mem := p.eng.mem
	if page := uint64(a) >> simm.PageShift; page != p.catPage || mem.CategoryGen() != p.catGen {
		p.cat = mem.CategoryOf(a)
		p.catPage, p.catGen = page, mem.CategoryGen()
	}
	if write {
		p.charge(p.eng.mach.WriteCat(p.id, a, size, p.clock, p.cat))
	} else {
		p.charge(p.eng.mach.ReadCat(p.id, a, size, p.clock, p.cat))
	}
}

// flatSpinStep performs one iteration of Acquire's test-and-test-and-
// set loop — charge for charge — and reports whether the lock was
// taken. One iteration per driver turn reproduces Acquire's
// per-iteration yield point.
func (p *Proc) flatSpinStep() bool {
	a := p.spinAddr
	mem := p.eng.mem
	p.inSync = true
	p.preAccess()
	p.charge(p.eng.mach.Read(p.id, a, 4, p.clock))
	if mem.Load32(a) == 0 {
		p.charge(p.eng.mach.Sync(p.id, a, p.clock))
		if mem.Load32(a) == 0 {
			mem.Store32(a, 1)
			p.inSync = false
			return true
		}
	}
	backoff := p.eng.cfg.SpinBackoff + int64(13*p.id)
	p.clock += backoff
	p.bd.MSync += uint64(backoff)
	return false
}

// flatSpinRelease mirrors Release without the trailing yield.
func (p *Proc) flatSpinRelease(a simm.Addr) {
	p.inSync = true
	p.charge(p.eng.mach.Sync(p.id, a, p.clock))
	p.eng.mem.Store32(a, 0)
	p.inSync = false
}

// Read8 performs a traced 1-byte load.
func (p *Proc) Read8(a simm.Addr) uint8 {
	v, cat := p.eng.mem.Load8Cat(a)
	p.readCat(a, 1, cat)
	return v
}

// Read16 performs a traced 2-byte load.
func (p *Proc) Read16(a simm.Addr) uint16 {
	v, cat := p.eng.mem.Load16Cat(a)
	p.readCat(a, 2, cat)
	return v
}

// Read32 performs a traced 4-byte load.
func (p *Proc) Read32(a simm.Addr) uint32 {
	v, cat := p.eng.mem.Load32Cat(a)
	p.readCat(a, 4, cat)
	return v
}

// Read64 performs a traced 8-byte load.
func (p *Proc) Read64(a simm.Addr) uint64 {
	v, cat := p.eng.mem.Load64Cat(a)
	p.readCat(a, 8, cat)
	return v
}

// Write8 performs a traced 1-byte store.
func (p *Proc) Write8(a simm.Addr, v uint8) {
	p.writeCat(a, 1, p.eng.mem.Store8Cat(a, v))
}

// Write16 performs a traced 2-byte store.
func (p *Proc) Write16(a simm.Addr, v uint16) {
	p.writeCat(a, 2, p.eng.mem.Store16Cat(a, v))
}

// Write32 performs a traced 4-byte store.
func (p *Proc) Write32(a simm.Addr, v uint32) {
	p.writeCat(a, 4, p.eng.mem.Store32Cat(a, v))
}

// Write64 performs a traced 8-byte store.
func (p *Proc) Write64(a simm.Addr, v uint64) {
	p.writeCat(a, 8, p.eng.mem.Store64Cat(a, v))
}

// ReadBytes performs a traced load of n bytes into dst, issuing one
// processor load per 8-byte word the way compiled string/record code
// does.
func (p *Proc) ReadBytes(a simm.Addr, dst []byte, n int) []byte {
	out := p.eng.mem.LoadBytes(a, dst, n)
	for off := 0; off < n; off += 8 {
		w := 8
		if n-off < w {
			w = n - off
		}
		p.read(a+simm.Addr(off), w)
	}
	return out
}

// WriteBytes performs a traced store of src, one word at a time.
func (p *Proc) WriteBytes(a simm.Addr, src []byte) {
	p.eng.mem.StoreBytes(a, src)
	for off := 0; off < len(src); off += 8 {
		w := 8
		if len(src)-off < w {
			w = len(src) - off
		}
		p.write(a+simm.Addr(off), w)
	}
}

// Copy performs a traced memory-to-memory copy of n bytes (load and
// store per word), the pattern of copying a selected tuple from a
// shared buffer into private storage.
func (p *Proc) Copy(dst, src simm.Addr, n int) {
	var buf [8]byte
	for off := 0; off < n; off += 8 {
		w := 8
		if n-off < w {
			w = n - off
		}
		p.eng.mem.LoadBytes(src+simm.Addr(off), buf[:], w)
		p.read(src+simm.Addr(off), w)
		p.eng.mem.StoreBytes(dst+simm.Addr(off), buf[:w])
		p.write(dst+simm.Addr(off), w)
	}
}

// SpinLock is a test-and-test-and-set metalock living in simulated
// shared memory (Postgres95's LockMgrLock and BufMgrLock are these).
type SpinLock struct {
	Addr simm.Addr
}

// Acquire spins until the lock is taken. All cycles spent from the
// first probe to acquisition are MSync, the paper's metalock
// synchronization bucket.
func (p *Proc) Acquire(l SpinLock) {
	if r := p.eng.Recorder; r != nil {
		r.SpinAcquire(p.id, l.Addr)
		if p.eng.RecordPure {
			// Serial execution: the lock is free by construction, so
			// the acquisition is just the winning store.
			p.eng.mem.Store32(l.Addr, 1)
			return
		}
	}
	p.inSync = true
	mem := p.eng.mem
	for {
		// Test: an ordinary load, so a spinning processor waits in
		// its own cache and misses only when the holder's release
		// invalidates the line.
		p.preAccess()
		p.charge(p.eng.mach.Read(p.id, l.Addr, 4, p.clock))
		v := mem.Load32(l.Addr)
		if v == 0 {
			// Test-and-set: atomic RMW, bypasses the write buffer.
			p.charge(p.eng.mach.Sync(p.id, l.Addr, p.clock))
			if mem.Load32(l.Addr) == 0 {
				mem.Store32(l.Addr, 1)
				break
			}
		}
		// Per-processor jitter keeps deterministic spinners from
		// locking into a starvation-inducing periodic pattern.
		backoff := p.eng.cfg.SpinBackoff + int64(13*p.id)
		p.clock += backoff
		p.bd.MSync += uint64(backoff)
		p.maybeYield()
	}
	p.inSync = false
	p.maybeYield()
}

// Release stores zero with a synchronizing write, invalidating the
// spinners' cached copies.
func (p *Proc) Release(l SpinLock) {
	if r := p.eng.Recorder; r != nil {
		r.SpinRelease(p.id, l.Addr)
		if p.eng.RecordPure {
			p.eng.mem.Store32(l.Addr, 0)
			return
		}
	}
	p.inSync = true
	p.charge(p.eng.mach.Sync(p.id, l.Addr, p.clock))
	p.eng.mem.Store32(l.Addr, 0)
	p.inSync = false
	p.maybeYield()
}
