package machine

import (
	"math/bits"

	"repro/internal/stats"
)

// Absence reasons recorded per line per cache, used to classify the next
// miss on that line (cold if never recorded, conflict if replaced,
// coherence if invalidated by another processor's write).
const (
	absentReplaced    = uint8(1)
	absentInvalidated = uint8(2)
	present           = uint8(3)
)

func classify(seen *seenTab, line uint64) stats.MissKind {
	switch seen.get(line) {
	case absentReplaced:
		return stats.Conf
	case absentInvalidated:
		return stats.Cohe
	default:
		return stats.Cold
	}
}

// setIndex computes (line>>lineShift) % sets, using the mask when the
// set count is a power of two (every standard geometry) and division
// otherwise.
func setIndex(line uint64, lineShift uint, sets, setMask uint64) uint64 {
	s := line >> lineShift
	if setMask != 0 {
		return s & setMask
	}
	return s % sets
}

// l1Cache is a direct-mapped primary cache. It holds no coherence state
// of its own: it is kept inclusive in the node's secondary cache, which
// is where the directory protocol acts.
type l1Cache struct {
	lineSize  uint64
	lineShift uint
	sets      uint64
	setMask   uint64   // sets-1 when sets is a power of two, else 0
	lines     []uint64 // line address per set; 0 = invalid
	seen      *seenTab
}

func newL1(bytes, line int) *l1Cache {
	sets := uint64(bytes / line)
	c := &l1Cache{
		lineSize:  uint64(line),
		lineShift: uint(bits.TrailingZeros64(uint64(line))),
		sets:      sets,
		lines:     make([]uint64, sets),
		seen:      newSeenTab(uint64(line)),
	}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	return c
}

func (c *l1Cache) lineOf(a uint64) uint64 { return a &^ (c.lineSize - 1) }
func (c *l1Cache) setOf(line uint64) uint64 {
	return setIndex(line, c.lineShift, c.sets, c.setMask)
}

func (c *l1Cache) lookup(a uint64) bool {
	line := c.lineOf(a)
	return c.lines[c.setOf(line)] == line
}

// fill inserts the line holding a, evicting the direct-mapped victim.
func (c *l1Cache) fill(a uint64) {
	line := c.lineOf(a)
	s := c.setOf(line)
	if v := c.lines[s]; v != 0 && v != line {
		c.seen.set(v, absentReplaced)
	}
	c.lines[s] = line
	c.seen.set(line, present)
}

// invalidateRange drops any line overlapping [a, a+n) for the given
// reason (coherence invalidation or inclusion-forced replacement).
func (c *l1Cache) invalidateRange(a, n uint64, reason uint8) {
	for line := c.lineOf(a); line < a+n; line += c.lineSize {
		s := c.setOf(line)
		if c.lines[s] == line {
			c.lines[s] = 0
			c.seen.set(line, reason)
		}
	}
}

func (c *l1Cache) flush() {
	for i := range c.lines {
		c.lines[i] = 0
	}
	c.seen.reset()
}

// MSI states of a secondary-cache line.
const (
	stInvalid  = uint8(0)
	stShared   = uint8(1)
	stModified = uint8(2)
)

// l2Cache is the set-associative secondary cache; its lines carry the
// MSI coherence state. Recency is a per-set rank permutation (one byte
// per way) rather than a global timestamp array: rank 0 is the LRU
// way, ways-1 the MRU. This is exactly equivalent to timestamp LRU
// with first-lowest-index tie-breaking — the victim scan only runs
// when every way is valid (invalid ways are claimed by the free-slot
// scan first), and among filled ways ranks order exactly as unique
// timestamps would — while costing 1 byte per line instead of 8, which
// is what keeps the warm-cache experiments' 32MB-L2 machines cheap to
// construct.
type l2Cache struct {
	lineSize  uint64
	lineShift uint
	sets      uint64
	setMask   uint64
	ways      int
	tags      []uint64 // sets*ways; 0 = invalid
	state     []uint8
	order     []uint8 // recency rank within the set: 0 = LRU, ways-1 = MRU
	seen      *seenTab
}

func newL2(bytes, line, ways int) *l2Cache {
	sets := uint64(bytes / (line * ways))
	n := sets * uint64(ways)
	c := &l2Cache{
		lineSize:  uint64(line),
		lineShift: uint(bits.TrailingZeros64(uint64(line))),
		sets:      sets,
		ways:      ways,
		tags:      make([]uint64, n),
		state:     make([]uint8, n),
		order:     make([]uint8, n),
		seen:      newSeenTab(uint64(line)),
	}
	c.resetOrder()
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	return c
}

// resetOrder restores the identity ranking in every set, the flush
// state: untouched ways are evicted lowest-index-first, matching the
// timestamp scan's tie-break over all-zero timestamps.
func (c *l2Cache) resetOrder() {
	for i := range c.order {
		c.order[i] = uint8(i % c.ways)
	}
}

// touch marks slot i most recently used within its set (base is the
// set's first slot): ranks above its old rank slide down one,
// preserving their relative order.
func (c *l2Cache) touch(base, i int) {
	r := c.order[i]
	if int(r) == c.ways-1 {
		return // already MRU; ranks are unchanged
	}
	for w := 0; w < c.ways; w++ {
		if c.order[base+w] > r {
			c.order[base+w]--
		}
	}
	c.order[i] = uint8(c.ways - 1)
}

func (c *l2Cache) lineOf(a uint64) uint64 { return a &^ (c.lineSize - 1) }
func (c *l2Cache) setOf(line uint64) uint64 {
	return setIndex(line, c.lineShift, c.sets, c.setMask)
}

// find returns the way index of the line, or -1.
func (c *l2Cache) find(line uint64) int {
	base := int(c.setOf(line)) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line && c.state[base+w] != stInvalid {
			return base + w
		}
	}
	return -1
}

// lookup probes for the line and refreshes LRU on a hit, returning the
// line's state (stInvalid on miss).
func (c *l2Cache) lookup(line uint64) uint8 {
	if i := c.find(line); i >= 0 {
		c.touch(i-i%c.ways, i)
		return c.state[i]
	}
	return stInvalid
}

// fill inserts the line in the given state and returns the victim line
// address and state (victim==0 if the slot was free).
func (c *l2Cache) fill(line uint64, st uint8) (victim uint64, victimState uint8) {
	base := int(c.setOf(line)) * c.ways
	slot := -1
	for w := 0; w < c.ways; w++ {
		if c.state[base+w] == stInvalid {
			slot = base + w
			break
		}
	}
	if slot < 0 {
		for w := 0; w < c.ways; w++ {
			if c.order[base+w] == 0 {
				slot = base + w
				break
			}
		}
		victim, victimState = c.tags[slot], c.state[slot]
		c.seen.set(victim, absentReplaced)
	}
	c.tags[slot] = line
	c.state[slot] = st
	c.touch(base, slot)
	c.seen.set(line, present)
	return victim, victimState
}

// setState changes the state of a resident line.
func (c *l2Cache) setState(line uint64, st uint8) {
	if i := c.find(line); i >= 0 {
		c.state[i] = st
	}
}

// invalidate drops the line for a coherence reason.
func (c *l2Cache) invalidate(line uint64) bool {
	if i := c.find(line); i >= 0 {
		c.state[i] = stInvalid
		c.seen.set(line, absentInvalidated)
		return true
	}
	return false
}

func (c *l2Cache) flush() {
	for i := range c.tags {
		c.tags[i] = 0
		c.state[i] = stInvalid
	}
	c.resetOrder()
	c.seen.reset()
}
