package trace

import "math/bits"

// timeline is the profiler's order-statistics structure over last-access
// times. Conceptually it is the LRU stack: each live block occupies one
// slot, slots are ordered by recency, and the stack depth of a reaccess is
// one plus the number of live slots more recent than the block's own.
//
// The profiler needs exactly three operations: append a new most-recent
// slot, remove an arbitrary slot, and count live slots above a slot. Slot
// occupancy is a bitset of 64-slot words, and a Fenwick (binary indexed)
// tree sums the words' popcounts, so a count is a prefix sum over whole
// words plus one popcount — O(log(slots/64)) with flat-array arithmetic.
// The open tail word (the one the next append lands in) is kept out of
// the tree and folded in when it fills: appends, and removals of recent
// blocks, touch only the bitset.
//
// Dead slots accumulate as blocks are reaccessed, so when the slot space
// is exhausted the live slots are compacted in place and renumbered in
// order, keeping memory proportional to the peak number of distinct live
// blocks rather than the trace length. Compaction is O(slots) and happens
// at most once per ~3x growth, so appends stay amortized O(1).
//
// Slot 0 is never used: the profiler's block index reads 0 as "unseen".
type timeline struct {
	occ   []uint64 // occ[w] bit b: slot 64w+b is live
	bit   []int32  // Fenwick tree over sealed words' popcounts, 1-based by word+1
	blkOf []int64  // slot -> block id; meaningful only while live
	next  int32    // next unused slot; its word is the open tail word
	live  int32    // number of live slots
	ops   int64    // structural operations (append/remove/count) performed
}

// timelineSlots returns the slot count (a multiple of 64) the timeline
// sizes itself to for the given live count.
func timelineSlots(live int32) int32 {
	return (4*(live+1024) + 63) &^ 63
}

func newTimeline() *timeline {
	n := timelineSlots(0)
	return &timeline{
		occ:   make([]uint64, n/64),
		bit:   make([]int32, n/64+1),
		blkOf: make([]int64, n),
		next:  1,
	}
}

func (t *timeline) add(i, d int32) {
	for n := int32(len(t.bit)); i < n; i += i & -i {
		t.bit[i] += d
	}
}

// prefix returns the live slots in the first i words (all sealed).
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
	w := slot >> 6
	// Live slots at or before slot: the whole words below w, plus w's
	// bits up to and including slot's own.
	upTo := int32(bits.OnesCount64(t.occ[w] & (2<<(slot&63) - 1)))
	if w == t.next>>6 {
		// Slot is in the tail word: every sealed word is below it.
		upTo += t.live - int32(bits.OnesCount64(t.occ[w]))
	} else {
		upTo += t.prefix(w)
	}
	return int64(t.live - upTo)
}

// Remove kills a live slot. Liveness is the bitset alone, so every int64,
// negative ones included, is a valid block id.
func (t *timeline) Remove(slot int32) {
	t.ops++
	w := slot >> 6
	t.occ[w] &^= 1 << (slot & 63)
	if w != t.next>>6 {
		t.add(w+1, -1)
	}
	t.live--
}

// Append assigns the next (most recent) slot to blk and returns it,
// compacting first if the slot space is exhausted. Compaction renumbers
// every live slot in recency order and reports each surviving block's new
// slot through relabel.
func (t *timeline) Append(blk int64, relabel func(blk int64, slot int32)) int32 {
	t.ops++
	if int(t.next) == len(t.blkOf) {
		t.compact(relabel)
	}
	s := t.next
	t.next++
	t.blkOf[s] = blk
	w := s >> 6
	t.occ[w] |= 1 << (s & 63)
	t.live++
	if t.next&63 == 0 {
		// The tail word is full: seal it into the tree.
		t.add(w+1, int32(bits.OnesCount64(t.occ[w])))
	}
	return s
}

func (t *timeline) compact(relabel func(int64, int32)) {
	// Walk the set bits in slot order and move each live slot down to the
	// next free position. Live slots only move down (n <= s), so blkOf
	// compacts in place; occ is only read here and rewritten below.
	var n int32
	for w, word := range t.occ {
		for word != 0 {
			s := int32(w)<<6 | int32(bits.TrailingZeros64(word))
			word &= word - 1
			n++
			t.blkOf[n] = t.blkOf[s]
			relabel(t.blkOf[n], n)
		}
	}
	t.next = n + 1
	// The arrays are reallocated only when the live set has outgrown them.
	size := timelineSlots(n)
	if int(size) <= cap(t.blkOf) {
		t.blkOf = t.blkOf[:size]
		t.occ = t.occ[:size/64]
		t.bit = t.bit[:size/64+1]
	} else {
		blkOf := make([]int64, size)
		copy(blkOf, t.blkOf[:t.next])
		t.blkOf = blkOf
		t.occ = make([]uint64, size/64)
		t.bit = make([]int32, size/64+1)
	}
	// Slots 1..n are now the live ones: every word below the tail is
	// full except word 0, whose slot 0 is never used.
	tail := t.next >> 6
	for w := range t.occ {
		switch {
		case int32(w) < tail:
			t.occ[w] = ^uint64(0)
		case int32(w) == tail:
			t.occ[w] = 1<<(t.next&63) - 1
		default:
			t.occ[w] = 0
		}
	}
	t.occ[0] &^= 1
	// Rebuild the Fenwick tree over the sealed words in linear time:
	// each node starts as its own word's popcount and adds itself into
	// its parent. Every node must take part, sealed or not, or a parent
	// above the tail would miss its left children's sums.
	clear(t.bit)
	for w := int32(0); w < tail; w++ {
		t.bit[w+1] = int32(bits.OnesCount64(t.occ[w]))
	}
	for i := int32(1); i < int32(len(t.bit)); i++ {
		if j := i + i&-i; j < int32(len(t.bit)) {
			t.bit[j] += t.bit[i]
		}
	}
}
