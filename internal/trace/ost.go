package trace

// timeline is the profiler's order-statistics structure over last-access
// times. Conceptually it is the LRU stack: each live block occupies one
// slot, slots are ordered by recency, and the stack depth of a reaccess is
// one plus the number of live slots more recent than the block's own.
//
// It is implemented as an implicit order-statistics tree — a Fenwick
// (binary indexed) tree of 0/1 occupancy over time slots — because the
// profiler's access pattern needs exactly three operations, all O(log n)
// with flat-array arithmetic and no pointer chasing: append a new most-
// recent slot, remove an arbitrary slot, and count live slots above a
// slot. Dead slots accumulate as blocks are reaccessed, so when the slot
// space is exhausted the live slots are compacted in place and renumbered
// in order, keeping memory proportional to the peak number of distinct
// live blocks rather than the trace length. Compaction is O(slots) and happens at
// most once per ~3x growth, so appends stay amortized O(log n).
type timeline struct {
	bit   []int32 // Fenwick tree over slot occupancy, 1-based
	blkOf []int64 // slot -> block id, 1-based; meaningful only while live
	next  int32   // next unused slot
	live  int32   // number of live slots
	ops   int64   // structural operations (append/remove/count) performed
}

func newTimeline() *timeline {
	const cap0 = 4096
	return &timeline{
		bit:   make([]int32, cap0+1),
		blkOf: make([]int64, cap0+1),
		next:  1,
	}
}

func (t *timeline) add(i, d int32) {
	for n := int32(len(t.bit)); i < n; i += i & -i {
		t.bit[i] += d
	}
}

func (t *timeline) prefix(i int32) int32 {
	var s int32
	for ; i > 0; i -= i & -i {
		s += t.bit[i]
	}
	return s
}

// Len returns the number of live slots.
func (t *timeline) Len() int { return int(t.live) }

// CountAfter returns the number of live slots strictly more recent than
// slot — the blocks above it in the LRU stack.
func (t *timeline) CountAfter(slot int32) int64 {
	t.ops++
	return int64(t.live - t.prefix(slot))
}

// Remove kills a live slot. Liveness is the tree's occupancy alone, so
// every int64, negative ones included, is a valid block id.
func (t *timeline) Remove(slot int32) {
	t.ops++
	t.add(slot, -1)
	t.live--
}

// Append assigns the next (most recent) slot to blk and returns it,
// compacting first if the slot space is exhausted. Compaction renumbers
// every live slot in recency order and reports each surviving block's new
// slot through relabel.
func (t *timeline) Append(blk int64, relabel func(blk int64, slot int32)) int32 {
	t.ops++
	if int(t.next) == len(t.bit) {
		t.compact(relabel)
	}
	s := t.next
	t.next++
	t.blkOf[s] = blk
	t.add(s, 1)
	t.live++
	return s
}

func (t *timeline) compact(relabel func(int64, int32)) {
	// Undo the Fenwick sums in place (the inverse of the linear-time
	// build, highest node first) so bit[s] is slot s's own occupancy.
	size := int32(len(t.bit)) - 1
	for i := size; i > 0; i-- {
		if j := i + i&-i; j <= size {
			t.bit[j] -= t.bit[i]
		}
	}
	// Live slots only move down (n <= s), so they compact in place; the
	// arrays are reallocated only when the live set has outgrown them.
	newCap := 4 * (t.live + 1024)
	blkOf := t.blkOf
	if int(newCap) < cap(blkOf) {
		blkOf = blkOf[:newCap+1]
	} else {
		blkOf = make([]int64, newCap+1)
	}
	var n int32
	for s := int32(1); s < t.next; s++ {
		if t.bit[s] != 0 {
			n++
			blkOf[n] = t.blkOf[s]
			relabel(blkOf[n], n)
		}
	}
	t.blkOf = blkOf
	t.next = n + 1
	// Rebuild the Fenwick tree with slots 1..n occupied: node i covers the
	// range (i - lowbit(i), i], so its count is the occupied part of that.
	if int(newCap) < cap(t.bit) {
		t.bit = t.bit[:newCap+1]
	} else {
		t.bit = make([]int32, newCap+1)
	}
	for i := int32(1); i <= newCap; i++ {
		lo := i - i&-i
		hi := i
		if hi > n {
			hi = n
		}
		t.bit[i] = max(hi-lo, 0)
	}
}
