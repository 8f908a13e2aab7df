package machine

import "math/bits"

// Open-addressed hash tables keyed by cache-line address, replacing the
// built-in maps that used to sit on the per-reference hot path (the
// per-cache `seen` history, the directory, and the outstanding-prefetch
// set). Line address 0 is never valid — the simulated address space
// keeps its first page unmapped — so 0 doubles as the empty-slot marker
// and no tombstones or occupancy bitmaps are needed. All tables use
// power-of-two capacities with linear probing and grow at ~75% load;
// lookups and inserts on a warm table allocate nothing.

// lineHash spreads line addresses (which share low zero bits and long
// runs of near-sequential values) across the table via a Fibonacci
// multiply. The caller masks the result to the table size.
func lineHash(line uint64) uint64 {
	return line * 0x9E3779B97F4A7C15
}

const tableInitSize = 1024 // slots; must be a power of two

// seenChunkBits sizes the leaves of seenTab: 1<<16 lines (a 64-KB byte
// array) per chunk.
const seenChunkBits = 16

// seenTab maps line -> uint8 with 0-valued absence: a get on a missing
// key returns 0, which the miss classifier reads as "never seen"
// (cold). It backs the per-cache seen history. Because the simulated
// address space is a dense linear span and a running query touches most
// lines of the regions it visits, the history is stored as a two-level
// chunked array indexed by line number — two dependent loads, no
// hashing, no probe chains, no rehash pauses — materializing 64-KB
// leaf chunks only for address ranges actually referenced.
type seenTab struct {
	lineShift uint
	chunks    [][]uint8
}

func newSeenTab(lineSize uint64) *seenTab {
	return &seenTab{lineShift: uint(bits.TrailingZeros64(lineSize))}
}

func (t *seenTab) get(line uint64) uint8 {
	idx := line >> t.lineShift
	ci := idx >> seenChunkBits
	if ci >= uint64(len(t.chunks)) || t.chunks[ci] == nil {
		return 0
	}
	return t.chunks[ci][idx&(1<<seenChunkBits-1)]
}

func (t *seenTab) set(line uint64, v uint8) {
	idx := line >> t.lineShift
	ci := idx >> seenChunkBits
	for ci >= uint64(len(t.chunks)) {
		t.chunks = append(t.chunks, nil)
	}
	c := t.chunks[ci]
	if c == nil {
		c = make([]uint8, 1<<seenChunkBits)
		t.chunks[ci] = c
	}
	c[idx&(1<<seenChunkBits-1)] = v
}

func (t *seenTab) reset() {
	// Drop all history; chunks rematerialize on demand.
	t.chunks = nil
}

// dirTab maps line -> dirEntry, storing entries inline (no per-entry
// allocation). entry() inserts a zero entry on first touch and returns a
// pointer into the backing array; that pointer is invalidated by the
// next entry() call, so callers must not hold one across insertions.
type dirTab struct {
	keys []uint64
	vals []dirEntry
	used int
	mask uint64
}

func newDirTab() *dirTab {
	return &dirTab{
		keys: make([]uint64, tableInitSize),
		vals: make([]dirEntry, tableInitSize),
		mask: tableInitSize - 1,
	}
}

func (t *dirTab) entry(line uint64) *dirEntry {
	i := lineHash(line) & t.mask
	for t.keys[i] != 0 && t.keys[i] != line {
		i = (i + 1) & t.mask
	}
	if t.keys[i] == 0 {
		t.keys[i] = line
		t.used++
		if uint64(t.used)*4 > (t.mask+1)*3 {
			t.grow()
			return t.entry(line)
		}
	}
	return &t.vals[i]
}

func (t *dirTab) grow() {
	oldK, oldV := t.keys, t.vals
	n := (t.mask + 1) * 2
	t.keys = make([]uint64, n)
	t.vals = make([]dirEntry, n)
	t.mask = n - 1
	for i, k := range oldK {
		if k == 0 {
			continue
		}
		j := lineHash(k) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldV[i]
	}
}

func (t *dirTab) reset() {
	for i := range t.keys {
		t.keys[i] = 0
		t.vals[i] = dirEntry{}
	}
	t.used = 0
}

// timeTab maps line -> int64 with true deletion (backward-shift, so no
// tombstones accumulate). It backs the outstanding-prefetch set, which
// is usually empty: callers gate on len() before probing.
type timeTab struct {
	keys []uint64
	vals []int64
	used int
	mask uint64
}

func newTimeTab() timeTab {
	return timeTab{
		keys: make([]uint64, tableInitSize),
		vals: make([]int64, tableInitSize),
		mask: tableInitSize - 1,
	}
}

func (t *timeTab) len() int { return t.used }

func (t *timeTab) get(line uint64) (int64, bool) {
	i := lineHash(line) & t.mask
	for {
		switch t.keys[i] {
		case line:
			return t.vals[i], true
		case 0:
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

func (t *timeTab) set(line uint64, v int64) {
	i := lineHash(line) & t.mask
	for t.keys[i] != 0 && t.keys[i] != line {
		i = (i + 1) & t.mask
	}
	if t.keys[i] == 0 {
		t.keys[i] = line
		t.used++
		if uint64(t.used)*4 > (t.mask+1)*3 {
			t.vals[i] = v
			t.grow()
			return
		}
	}
	t.vals[i] = v
}

// del removes line if present, backward-shifting the probe chain to
// keep lookups correct without tombstones.
func (t *timeTab) del(line uint64) {
	i := lineHash(line) & t.mask
	for {
		switch t.keys[i] {
		case 0:
			return
		case line:
		default:
			i = (i + 1) & t.mask
			continue
		}
		break
	}
	t.used--
	// Backward-shift: walk the cluster after the hole; any entry whose
	// ideal slot is outside (hole, current] moves into the hole.
	j := i
	for {
		j = (j + 1) & t.mask
		if t.keys[j] == 0 {
			break
		}
		h := lineHash(t.keys[j]) & t.mask
		// Move keys[j] into the hole unless its ideal position h lies
		// strictly inside the gap (i, j] in circular order.
		if (j > i && (h <= i || h > j)) || (j < i && (h <= i && h > j)) {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i] = 0
	t.vals[i] = 0
}

func (t *timeTab) grow() {
	oldK, oldV := t.keys, t.vals
	n := (t.mask + 1) * 2
	t.keys = make([]uint64, n)
	t.vals = make([]int64, n)
	t.mask = n - 1
	for i, k := range oldK {
		if k == 0 {
			continue
		}
		j := lineHash(k) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldV[i]
	}
}

func (t *timeTab) reset() {
	for i := range t.keys {
		t.keys[i] = 0
		t.vals[i] = 0
	}
	t.used = 0
}
