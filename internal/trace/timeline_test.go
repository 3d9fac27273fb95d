package trace

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// timelineModel drives a timeline the way Profiler does — a block -> slot
// index kept current through relabel — next to a naive move-to-front LRU
// stack, and checks every depth the timeline reports against it.
type timelineModel struct {
	tb          testing.TB
	tl          *timeline
	slot        map[int64]int32
	stack       []int64 // least recent first
	calls       int64   // Append, Remove and CountAfter calls made
	compactions int
}

func newTimelineModel(tb testing.TB) *timelineModel {
	return &timelineModel{tb: tb, tl: newTimeline(), slot: map[int64]int32{}}
}

func (m *timelineModel) relabel(blk int64, s int32) { m.slot[blk] = s }

func (m *timelineModel) unstack(blk int64) int {
	i := slices.Index(m.stack, blk)
	m.stack = slices.Delete(m.stack, i, i+1)
	return i
}

// touch accesses blk: a reaccess's depth must match the naive stack.
func (m *timelineModel) touch(blk int64) {
	if s, ok := m.slot[blk]; ok {
		got := m.tl.CountAfter(s)
		want := int64(len(m.stack) - 1 - m.unstack(blk))
		if got != want {
			m.tb.Fatalf("block %d: %d live slots above it, want %d (live %d)", blk, got, want, len(m.stack)+1)
		}
		m.tl.Remove(s)
		m.calls += 2
	}
	next := m.tl.next
	m.slot[blk] = m.tl.Append(blk, m.relabel)
	m.calls++
	if m.tl.next != next+1 {
		m.compactions++
	}
	m.stack = append(m.stack, blk)
}

// drop removes blk from the stack without reaccessing it, so the live
// set can shrink.
func (m *timelineModel) drop(blk int64) {
	s, ok := m.slot[blk]
	if !ok {
		return
	}
	m.tl.Remove(s)
	m.calls++
	delete(m.slot, blk)
	m.unstack(blk)
}

// check compares the whole stack: the live count, every live block's
// depth, and the operation count.
func (m *timelineModel) check() {
	if m.tl.Len() != len(m.stack) {
		m.tb.Fatalf("timeline holds %d live slots, want %d", m.tl.Len(), len(m.stack))
	}
	for i, blk := range m.stack {
		if got, want := m.tl.CountAfter(m.slot[blk]), int64(len(m.stack)-1-i); got != want {
			m.tb.Fatalf("block %d: %d live slots above it, want %d (live %d)", blk, got, want, len(m.stack))
		}
		m.calls++
	}
	if m.tl.ops != m.calls {
		m.tb.Fatalf("timeline counted %d operations, want %d", m.tl.ops, m.calls)
	}
}

// sweep touches blocks lo..hi-1 in order.
func (m *timelineModel) sweep(lo, hi int64) {
	for b := lo; b < hi; b++ {
		m.touch(b)
	}
}

// TestTimelineMatchesMoveToFront checks the timeline against a naive
// move-to-front LRU stack on random streams over universes of 1 to 3000
// blocks: every reaccess depth, the live count and the operation count.
func TestTimelineMatchesMoveToFront(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, universe := range []int64{1, 2, 3, 63, 64, 65, 127, 128, 129, 700, 1500, 3000} {
		m := newTimelineModel(t)
		for i := 0; i < 12000; i++ {
			switch r := rng.Intn(100); {
			case r < 2: // a short scan, the shape of a buffer pass
				lo := rng.Int63n(universe)
				m.sweep(lo, min(lo+1+rng.Int63n(200), universe))
			case r < 60: // a hot block near the top of the stack
				m.touch(rng.Int63n(min(universe, 8)))
			default:
				m.touch(rng.Int63n(universe))
			}
			// Negative and huge ids are blocks like any other.
			if i%997 == 0 {
				m.touch(-1 - rng.Int63n(1<<40))
			}
		}
		m.check()
	}
}

// TestTimelineLiveCountsStraddleWords fills the stack to live counts on
// either side of multiples of 64 — the word boundaries of the occupancy
// bitset and of the open tail word — and reaccesses every depth.
func TestTimelineLiveCountsStraddleWords(t *testing.T) {
	for _, live := range []int64{1, 62, 63, 64, 65, 127, 128, 129, 191, 192, 193, 4031, 4032, 4033, 4095, 4096, 4097} {
		m := newTimelineModel(t)
		m.sweep(0, live)
		m.check()
		// Reaccess from the bottom of the stack up: every depth from
		// live down to 1 once, then the top alone.
		m.sweep(0, live)
		m.touch(live - 1)
		m.check()
	}
}

// TestTimelineCompactsWhileLiveSetGrowsAndShrinks forces many compactions
// while the live set grows past the initial slot space, shrinks to a few
// blocks, and grows again, so compaction both outgrows and reuses its
// arrays and the Fenwick tree is rebuilt at every size in between.
func TestTimelineCompactsWhileLiveSetGrowsAndShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	m := newTimelineModel(t)
	for _, live := range []int64{100, 3000, 40, 2500, 1, 1100, 65, 3000, 129} {
		for _, b := range slices.Clone(m.stack) {
			if b >= live {
				m.drop(b) // shrink to the blocks below live
			}
		}
		for r := 0; r < 6; r++ {
			m.sweep(0, live)
			for i := 0; i < 500; i++ {
				m.touch(rng.Int63n(live))
			}
		}
		m.check()
	}
	if m.compactions < 10 {
		t.Fatalf("only %d compactions, want at least 10", m.compactions)
	}
}

// FuzzTimeline runs the move-to-front differential on streams decoded
// from the fuzz input: three bytes per operation — an opcode and a
// 16-bit argument — over a universe of 1 to 3000 blocks set by the first
// two bytes. Scans make long streams out of short inputs, so compaction
// is reached; the stream is capped to keep each input fast.
func FuzzTimeline(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0, 1, 0, 0, 2, 0, 0, 1, 0, 3, 0, 0})
	f.Add([]byte{0x0b, 0xb8, 2, 0xff, 0xff, 2, 0xff, 0xff, 3, 0x40, 0, 2, 0xff, 0xff})
	f.Add([]byte{0x00, 0x41, 2, 0x40, 0, 2, 0x40, 0, 1, 3, 0, 0, 0x3f, 0, 2, 0x41, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		universe := 1 + int64(binary.BigEndian.Uint16(data))%3000
		m := newTimelineModel(t)
		const maxCalls = 1 << 15
		for ops := data[2:]; len(ops) >= 3 && m.calls < maxCalls; ops = ops[3:] {
			arg := int64(binary.BigEndian.Uint16(ops[1:])) % universe
			switch ops[0] % 4 {
			case 0:
				m.touch(arg)
			case 1:
				m.drop(arg)
			case 2: // scan the first arg+1 blocks
				m.sweep(0, arg+1)
			case 3: // drop every block at or above arg
				for b := arg; b < universe; b++ {
					m.drop(b)
				}
			}
		}
		m.check()
	})
}
