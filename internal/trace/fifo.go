package trace

import "sort"

// FIFO profiling. FIFO is not a stack algorithm — a bigger FIFO cache can
// miss more (Belady's anomaly) and eviction order is insertion order, not
// recency — so there is no single-pass structure that answers every
// capacity at once the way Mattson's algorithm does for LRU. What still
// works is replay multiplexing: a FIFO set is just a circular buffer, so
// one pass over the trace can drive an arbitrary number of per-set FIFO
// replicas (one per requested way count) side by side, each a few words of
// state per set. One recorded trace therefore still answers every
// requested (sets, ways) FIFO point without re-running the scheduler or
// the cache simulator.

// FIFOProfiler replays a block-access stream through per-set FIFO caches
// for a fixed set count and a list of way counts, all in one pass. It
// mirrors cachesim's FIFO exactly: placement is blk mod sets (floored),
// empty slots fill in index order, and eviction removes the oldest
// insertion; hits do not reorder the queue.
type FIFOProfiler struct {
	pl       placement
	banks    []*fifoBank // one per way count, ascending
	accesses int64
	cold     int64

	// first-ever tracking for cold misses, dense with a sparse fallback
	// like Profiler's block index.
	seenDense  []bool
	seenSparse map[int64]struct{}
}

// fifoBank is one way count's per-set circular buffers, in set order.
// FIFOProfiler and OrgProfiler hold one per replayed way count.
type fifoBank struct {
	ways   int64
	blk    []int64 // sets * ways entries; a set's first fill[set] are resident
	fill   []int32 // per set: occupied slots, filled in index order
	head   []int32 // per set, once full: the oldest slot, replaced next
	misses int64
	// resident is an O(1) membership index, used instead of scanning the
	// row when ways exceeds fifoScanLimit (large fully-associative FIFOs
	// would otherwise cost O(ways) per access).
	resident map[int64]struct{}
}

// fifoScanLimit is the way count above which membership switches from a
// linear row scan (cache-friendly, branch-predictable for real set sizes)
// to a hash set.
const fifoScanLimit = 16

// newFIFOBanks builds one sets-set bank per distinct way count, in
// ascending way order — the order FIFOCurve reports them in.
func newFIFOBanks(sets int64, ways []int64) []*fifoBank {
	uniq := make([]int64, 0, len(ways))
	seen := make(map[int64]bool, len(ways))
	for _, w := range ways {
		if !seen[w] {
			seen[w] = true
			uniq = append(uniq, w)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	banks := make([]*fifoBank, len(uniq))
	for i, w := range uniq {
		f := &fifoBank{ways: w, blk: make([]int64, sets*w), fill: make([]int32, sets), head: make([]int32, sets)}
		if w > fifoScanLimit {
			f.resident = make(map[int64]struct{}, sets*w)
		}
		banks[i] = f
	}
	return banks
}

// NewFIFOProfiler returns a replayer for the given set count and way
// counts (deduplicated, reported in ascending order). It panics if
// sets < 1, ways is empty, or any way count is < 1.
func NewFIFOProfiler(sets int64, ways []int64) *FIFOProfiler {
	if sets < 1 {
		panic("trace: FIFOProfiler needs at least one set")
	}
	if len(ways) == 0 {
		panic("trace: FIFOProfiler needs at least one way count")
	}
	for _, w := range ways {
		if w < 1 {
			panic("trace: FIFOProfiler way counts must be >= 1")
		}
	}
	return &FIFOProfiler{pl: newPlacement(sets), banks: newFIFOBanks(sets, ways)}
}

// Sets returns the number of sets the replayer shards into.
func (p *FIFOProfiler) Sets() int64 { return p.pl.sets }

// RecordBlock implements Recorder.
func (p *FIFOProfiler) RecordBlock(blk int64) { p.Touch(blk) }

// Touch processes one block access through every replica.
func (p *FIFOProfiler) Touch(blk int64) {
	p.accesses++
	if p.firstEver(blk) {
		p.cold++
	}
	set, _ := p.pl.place(blk)
	for _, f := range p.banks {
		f.touch(set, blk)
	}
}

// touch feeds one access, already placed in set, to that set's row.
func (f *fifoBank) touch(set, blk int64) {
	base := set * f.ways
	row := f.blk[base : base+f.ways]
	n := f.fill[set]
	if f.resident != nil {
		if _, ok := f.resident[blk]; ok {
			return // FIFO hit: no reorder
		}
		f.resident[blk] = struct{}{}
	} else {
		for _, b := range row[:n] {
			if b == blk {
				return // FIFO hit: no reorder
			}
		}
	}
	f.misses++
	if int64(n) < f.ways {
		row[n] = blk
		f.fill[set] = n + 1
		return
	}
	h := f.head[set]
	if f.resident != nil {
		delete(f.resident, row[h])
	}
	row[h] = blk
	h++
	if int64(h) == f.ways {
		h = 0
	}
	f.head[set] = h
}

func (p *FIFOProfiler) firstEver(blk int64) bool {
	if blk >= 0 && blk < denseLimit {
		if blk >= int64(len(p.seenDense)) {
			n := int64(len(p.seenDense))
			if n == 0 {
				n = 4096
			}
			for n <= blk {
				n *= 2
			}
			if n > denseLimit {
				n = denseLimit
			}
			grown := make([]bool, n)
			copy(grown, p.seenDense)
			p.seenDense = grown
		}
		if p.seenDense[blk] {
			return false
		}
		p.seenDense[blk] = true
		return true
	}
	if _, ok := p.seenSparse[blk]; ok {
		return false
	}
	if p.seenSparse == nil {
		p.seenSparse = make(map[int64]struct{}, 64)
	}
	p.seenSparse[blk] = struct{}{}
	return true
}

// ResetCounts zeroes the miss counters while keeping every replica's cache
// contents (and the first-ever set), exactly like resetting the cache
// simulator's statistics after warmup.
func (p *FIFOProfiler) ResetCounts() {
	p.accesses = 0
	p.cold = 0
	for _, f := range p.banks {
		f.misses = 0
	}
}

// Curve freezes the replayed counts into a FIFOCurve.
func (p *FIFOProfiler) Curve() *FIFOCurve { return fifoCurve(p.pl.sets, p.accesses, p.cold, p.banks) }

// fifoCurve freezes banks' miss counts into a FIFOCurve with the given
// counted totals.
func fifoCurve(sets, accesses, cold int64, banks []*fifoBank) *FIFOCurve {
	c := &FIFOCurve{
		Sets:     sets,
		Accesses: accesses,
		Cold:     cold,
		ways:     make([]int64, len(banks)),
		misses:   make([]int64, len(banks)),
	}
	for i, f := range banks {
		c.ways[i] = f.ways
		c.misses[i] = f.misses
	}
	return c
}

// FIFOCurve is the result of multiplexed FIFO replay: the exact FIFO miss
// count of the recorded (windowed) stream for a fixed set count at each
// replayed way count. Unlike the LRU curves it is defined only at the way
// counts that were replayed.
type FIFOCurve struct {
	// Sets is the set count the trace was sharded by.
	Sets int64
	// Accesses is the number of counted (in-window) block accesses.
	Accesses int64
	// Cold is the number of counted first-ever accesses.
	Cold   int64
	ways   []int64
	misses []int64
}

// Ways returns the replayed way counts in ascending order.
func (c *FIFOCurve) Ways() []int64 {
	out := make([]int64, len(c.ways))
	copy(out, c.ways)
	return out
}

// Misses returns the exact miss count of a Sets-set FIFO cache with the
// given way count; ok is false if that way count was not replayed.
func (c *FIFOCurve) Misses(ways int64) (n int64, ok bool) {
	for i, w := range c.ways {
		if w == ways {
			return c.misses[i], true
		}
	}
	return 0, false
}

// MissRatio returns misses/accesses at the given way count (0 if that way
// count was not replayed or nothing was counted).
func (c *FIFOCurve) MissRatio(ways int64) float64 {
	m, ok := c.Misses(ways)
	if !ok || c.Accesses == 0 {
		return 0
	}
	return float64(m) / float64(c.Accesses)
}
