package trace

import "math/bits"

// Set-associative LRU profiling. A set-associative cache is a bank of
// independent small fully-associative caches: block blk lives in set
// blk mod sets, and within a set the replacement policy orders only that
// set's blocks. Because the set index is a pure function of the block id,
// the trace can be sharded by set up front, and LRU-within-a-set is still
// a stack algorithm — so one Mattson profiler per set yields the exact
// set-associative LRU miss count for every way count (lines per set) at
// once, from a single pass over the trace. This is how E12's robustness
// ablation becomes one-pass: a W-way cache of capacity M words and block
// B has sets = (M/B)/W, and its miss count is the sum over sets of the
// per-set misses at stack depth W.
//
// Placement is computed once per access per set count by a placement
// value, shared by AssocProfiler, FIFOProfiler and OrgProfiler: for the
// power-of-two set counts every grid produces it is a mask and a shift,
// so the fully-associative curve (one set) costs no division at all.

// placement is cachesim's set placement for one set count: set = blk mod
// sets and within-set id = blk div sets, both floored so negative block
// ids land in [0, sets) and stay distinct within their set. For a
// power-of-two count they are blk & (sets-1) and an arithmetic shift;
// other counts use the floored division.
type placement struct {
	sets  int64
	mask  int64 // sets-1 when sets is a power of two, else -1
	shift uint  // log2(sets) when sets is a power of two
}

func newPlacement(sets int64) placement {
	p := placement{sets: sets, mask: -1}
	if sets&(sets-1) == 0 {
		p.mask = sets - 1
		p.shift = uint(bits.TrailingZeros64(uint64(sets)))
	}
	return p
}

// place returns blk's set and its id within that set.
func (p placement) place(blk int64) (set, id int64) {
	if p.mask >= 0 {
		return blk & p.mask, blk >> p.shift
	}
	id = blk / p.sets
	set = blk - id*p.sets
	if set < 0 { // truncated toward zero: step down to the floor
		set += p.sets
		id--
	}
	return set, id
}

// AssocProfiler shards a block-access stream by set index and runs an
// independent Mattson stack profiler per set. It mirrors cachesim's
// placement exactly (set = blk mod sets, floored), so its curves match the
// set-associative LRU simulator access for access. An AssocProfiler with
// one set is the fully-associative profiler.
//
// Per-set stacks are usually tiny (a set sees only 1/sets of the working
// set), where the Fenwick timeline's O(log n) constant loses to a plain
// move-to-front array scan, so each set starts as a list-based Mattson
// stack — the scan position IS the stack depth — and upgrades itself to a
// full Profiler only if its stack outgrows assocListLimit. Both forms are
// exact; the hybrid is what keeps multi-organisation profiling cheap per
// access.
type AssocProfiler struct {
	pl  placement
	per []setStack // per[set]
}

// assocListLimit is the per-set stack size beyond which a list stack
// upgrades to the Fenwick-based Profiler: move-to-front costs O(depth),
// so deep stacks go back to the O(log n) structure.
const assocListLimit = 192

// setStack is one set's adaptive Mattson stack.
type setStack struct {
	list *listStack
	mat  *Profiler // non-nil once upgraded
}

// NewAssocProfiler returns a profiler for the given number of sets.
// It panics if sets < 1 (programmer error, like an invalid cache config).
func NewAssocProfiler(sets int64) *AssocProfiler {
	if sets < 1 {
		panic("trace: AssocProfiler needs at least one set")
	}
	p := &AssocProfiler{pl: newPlacement(sets), per: make([]setStack, sets)}
	for i := range p.per {
		p.per[i].list = &listStack{}
	}
	return p
}

// Sets returns the number of sets the profiler shards into.
func (p *AssocProfiler) Sets() int64 { return p.pl.sets }

// RecordBlock implements Recorder.
func (p *AssocProfiler) RecordBlock(blk int64) { p.Touch(blk) }

// Touch processes one access: it routes the access to the block's
// set and feeds the set's stack the block's within-set id, so each
// per-set stack sees a dense id space regardless of the stride the set
// selection induces.
func (p *AssocProfiler) Touch(blk int64) {
	set, id := p.pl.place(blk)
	p.per[set].touch(id)
}

func (s *setStack) touch(blk int64) {
	if s.mat != nil {
		s.mat.Touch(blk)
		return
	}
	s.list.touch(blk)
	if len(s.list.blks) > assocListLimit {
		s.upgrade()
	}
}

// upgrade transfers the list stack's state into a Fenwick-based Profiler:
// the stack contents seed the timeline (least recent first) and the
// counted histogram carries over unchanged.
func (s *setStack) upgrade() {
	m := NewProfiler()
	for i := len(s.list.blks) - 1; i >= 0; i-- {
		m.seedStack(s.list.blks[i])
	}
	m.hist = s.list.hist
	m.cold = s.list.cold
	s.mat = m
	s.list = nil
}

func (s *setStack) resetCounts() {
	if s.mat != nil {
		s.mat.ResetCounts()
		return
	}
	for i := range s.list.hist {
		s.list.hist[i] = 0
	}
	s.list.cold = 0
}

func (s *setStack) curve() *MissCurve {
	if s.mat != nil {
		return s.mat.Curve()
	}
	return curveFromHist(s.list.hist, s.list.cold)
}

// TimelineOps returns the total Fenwick-timeline operation count across
// the sets that upgraded to the order-statistics structure; sets still on
// the list stack contribute nothing (their work is array scans).
func (p *AssocProfiler) TimelineOps() int64 {
	var ops int64
	for i := range p.per {
		if m := p.per[i].mat; m != nil {
			ops += m.TimelineOps()
		}
	}
	return ops
}

// ResetCounts zeroes every set's histogram while keeping stack state,
// mirroring Profiler.ResetCounts for the warmup-window protocol.
func (p *AssocProfiler) ResetCounts() {
	for i := range p.per {
		p.per[i].resetCounts()
	}
}

// Curve freezes the per-set histograms into an AssocCurve.
func (p *AssocProfiler) Curve() *AssocCurve {
	c := &AssocCurve{Sets: p.pl.sets, per: make([]*MissCurve, len(p.per))}
	for set := range p.per {
		mc := p.per[set].curve()
		c.per[set] = mc
		c.Accesses += mc.Accesses
		c.Cold += mc.Cold
	}
	return c
}

// listStack is Mattson's algorithm on an explicit move-to-front array:
// the index at which a block is found is one less than its stack depth.
// O(depth) per access with a tiny constant — the right trade for the
// shallow stacks per-set sharding produces.
type listStack struct {
	blks []int64 // most recent first
	hist []int64 // hist[d]: counted accesses at stack depth d (1-based)
	cold int64
}

func (l *listStack) touch(blk int64) {
	for i, b := range l.blks {
		if b == blk {
			d := i + 1
			if len(l.hist) <= d {
				grown := make([]int64, 2*d+2)
				copy(grown, l.hist)
				l.hist = grown
			}
			l.hist[d]++
			copy(l.blks[1:d], l.blks[:i])
			l.blks[0] = blk
			return
		}
	}
	l.cold++
	l.blks = append(l.blks, 0)
	copy(l.blks[1:], l.blks[:len(l.blks)-1])
	l.blks[0] = blk
}

// AssocCurve is the result of per-set reuse-distance profiling: the exact
// set-associative LRU miss count of the recorded (windowed) stream for a
// fixed set count, as a function of the way count — every associativity
// with that set count at once.
type AssocCurve struct {
	// Sets is the set count the trace was sharded by.
	Sets int64
	// Accesses is the number of counted (in-window) block accesses.
	Accesses int64
	// Cold is the number of counted first-ever accesses.
	Cold int64
	per  []*MissCurve
}

// Misses returns the exact miss count of a Sets-set LRU cache with the
// given number of ways (lines per set). With Sets == 1 this is the
// fully-associative curve and ways is the total line count.
func (c *AssocCurve) Misses(ways int64) int64 {
	var m int64
	for _, mc := range c.per {
		m += mc.Misses(ways)
	}
	return m
}

// MissRatio returns misses/accesses at the given way count.
func (c *AssocCurve) MissRatio(ways int64) float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses(ways)) / float64(c.Accesses)
}

// Full returns the underlying fully-associative MissCurve when the curve
// was profiled with a single set, and nil otherwise.
func (c *AssocCurve) Full() *MissCurve {
	if c.Sets != 1 {
		return nil
	}
	return c.per[0]
}
