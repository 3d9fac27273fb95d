package trace

import (
	"fmt"

	"streamsched/internal/obs"
)

// OrgSpec selects one cache-organisation family to profile a trace under:
// a set count whose per-set LRU stacks answer every way count at once,
// plus an optional list of way counts to replay under FIFO replacement.
// Sets == 1 is the fully-associative family (way count == total lines).
type OrgSpec struct {
	// Sets is the number of sets the trace is sharded into; must be >= 1.
	Sets int64
	// FIFOWays lists the way counts to replay under FIFO; empty means the
	// family is profiled under LRU only.
	FIFOWays []int64
}

// Validate checks the spec.
func (s OrgSpec) Validate() error {
	if s.Sets < 1 {
		return fmt.Errorf("trace: organisation needs at least one set, got %d", s.Sets)
	}
	for _, w := range s.FIFOWays {
		if w < 1 {
			return fmt.Errorf("trace: FIFO way count must be >= 1, got %d", w)
		}
	}
	return nil
}

// OrgCurves is the profile of one trace under one OrgSpec: the exact LRU
// miss count for every way count (from the per-set Mattson stacks) and,
// when requested, the exact FIFO miss counts at the replayed way counts.
type OrgCurves struct {
	Spec OrgSpec
	LRU  *AssocCurve
	FIFO *FIFOCurve // nil when the spec requested no FIFO way counts
}

// SetsFor returns the set count of a (capacity, block, ways) geometry in
// cachesim's terms — lines = capacity/block split into lines/ways sets —
// with ways == 0 meaning fully associative (one set). It mirrors
// cachesim.Config.Validate's divisibility requirements.
func SetsFor(capacity, block, ways int64) (int64, error) {
	if block <= 0 || capacity <= 0 {
		return 0, fmt.Errorf("trace: capacity and block must be positive, got %d/%d", capacity, block)
	}
	if capacity%block != 0 {
		return 0, fmt.Errorf("trace: capacity %d not a multiple of block %d", capacity, block)
	}
	lines := capacity / block
	if ways == 0 {
		return 1, nil
	}
	if ways < 0 || ways > lines {
		return 0, fmt.Errorf("trace: ways %d out of range for %d lines", ways, lines)
	}
	if lines%ways != 0 {
		return 0, fmt.Errorf("trace: line count %d not a multiple of ways %d", lines, ways)
	}
	return lines / ways, nil
}

// EffectiveWays resolves a ways value to the way count an OrgSpec curve
// is evaluated at: 0 (fully associative) becomes the line count.
func EffectiveWays(capacity, block, ways int64) int64 {
	if ways == 0 {
		return capacity / block
	}
	return ways
}

// GridSpecs groups a (capacity x ways) evaluation grid at the given block
// size into one OrgSpec per distinct set count — the shape ProfileOrgsJobs
// wants — and returns the set-count -> spec-index map used to find each
// geometry's curves again. A ways value of 0 means fully associative.
// When fifo is true every geometry's effective way count is added to its
// spec's FIFO replay list. Errors mirror SetsFor's geometry rules.
func GridSpecs(caps []int64, block int64, ways []int64, fifo bool) ([]OrgSpec, map[int64]int, error) {
	specIdx := make(map[int64]int)
	var specs []OrgSpec
	for _, c := range caps {
		for _, w := range ways {
			sets, err := SetsFor(c, block, w)
			if err != nil {
				return nil, nil, err
			}
			idx, ok := specIdx[sets]
			if !ok {
				idx = len(specs)
				specIdx[sets] = idx
				specs = append(specs, OrgSpec{Sets: sets})
			}
			if fifo {
				specs[idx].FIFOWays = append(specs[idx].FIFOWays, EffectiveWays(c, block, w))
			}
		}
	}
	return specs, specIdx, nil
}

// Misses evaluates the organisation at one way count under LRU (fifo
// false) or FIFO (fifo true). ok is false when FIFO was requested but
// that way count was not replayed.
func (o *OrgCurves) Misses(ways int64, fifo bool) (n int64, ok bool) {
	if fifo {
		if o.FIFO == nil {
			return 0, false
		}
		return o.FIFO.Misses(ways)
	}
	return o.LRU.Misses(ways), true
}

// OrgProfiler profiles one access stream under a list of organisations
// at once: per spec, one per-set LRU stack per set (an AssocProfiler) and
// one FIFO row per set per distinct replayed way count. It implements
// WindowedConsumer, for replaying a Log, and Recorder, for profiling a
// run while it records; Touch computes each spec's set index once and
// feeds every structure of that spec.
//
// The FIFO curves take their Accesses/Cold totals from the spec's LRU
// curve instead of tracking first-ever blocks a second time: FIFO and
// LRU count the same in-window accesses, and a block's first-ever access
// is first-ever in its set's stack exactly when it is first-ever
// globally, so the totals coincide by construction (the org tests assert
// this against a standalone FIFOProfiler).
type OrgProfiler struct {
	specs []OrgSpec
	lru   []*AssocProfiler
	fifo  [][]*fifoBank // fifo[i]: spec i's banks, ascending way count
}

// NewOrgProfiler validates the specs and builds their profilers.
func NewOrgProfiler(specs []OrgSpec) (*OrgProfiler, error) {
	p := &OrgProfiler{
		specs: specs,
		lru:   make([]*AssocProfiler, len(specs)),
		fifo:  make([][]*fifoBank, len(specs)),
	}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		p.lru[i] = NewAssocProfiler(sp.Sets)
		p.fifo[i] = newFIFOBanks(sp.Sets, sp.FIFOWays)
	}
	return p, nil
}

// ResetCounts starts the measured window on every structure.
func (p *OrgProfiler) ResetCounts() {
	for i, a := range p.lru {
		a.ResetCounts()
		for _, f := range p.fifo[i] {
			f.misses = 0
		}
	}
}

// RecordBlock implements Recorder, so an execution machine can profile
// its access stream while it runs, without recording a Log.
func (p *OrgProfiler) RecordBlock(blk int64) { p.Touch(blk) }

// Touch processes one access under every organisation.
func (p *OrgProfiler) Touch(blk int64) {
	for i, a := range p.lru {
		set, id := a.pl.place(blk)
		a.per[set].touch(id)
		for _, f := range p.fifo[i] {
			f.touch(set, blk)
		}
	}
}

// Curves freezes the per-spec curves, in spec order.
func (p *OrgProfiler) Curves() []*OrgCurves {
	out := make([]*OrgCurves, len(p.specs))
	for i, sp := range p.specs {
		ac := p.lru[i].Curve()
		out[i] = &OrgCurves{Spec: sp, LRU: ac}
		if len(p.fifo[i]) > 0 {
			out[i].FIFO = fifoCurve(sp.Sets, ac.Accesses, ac.Cold, p.fifo[i])
		}
	}
	return out
}

// TimelineOps returns the total Fenwick-timeline operation count across
// every spec's upgraded set stacks.
func (p *OrgProfiler) TimelineOps() int64 {
	var ops int64
	for _, a := range p.lru {
		ops += a.TimelineOps()
	}
	return ops
}

// PublishMetrics records a completed pass's totals into reg: the counted
// access total, the Fenwick work it cost and the pass count. No-op when
// reg is nil.
func (p *OrgProfiler) PublishMetrics(reg *obs.Registry, curves []*OrgCurves) {
	if reg == nil {
		return
	}
	var accesses int64
	if len(curves) > 0 {
		accesses = curves[0].LRU.Accesses
	}
	reg.Counter("trace.profile.accesses").Add(accesses)
	reg.Counter("trace.profile.fenwick.ops").Add(p.TimelineOps())
	reg.Counter("trace.profile.passes").Add(1)
}

// ProfileOrgsJobs replays the log once and profiles every organisation
// from that single pass, honouring the log's measured window (accesses
// before WindowStart warm the caches but are not counted). One
// OrgProfiler replays inline on the calling goroutine; the curves come
// back in spec order. The jobs and decodeJobs parameters are deprecated:
// ignored; organisation profiling runs on one worker, which measured
// faster than striping the per-set state across several.
func ProfileOrgsJobs(l *Log, specs []OrgSpec, jobs, decodeJobs int) ([]*OrgCurves, error) {
	p, err := NewOrgProfiler(specs)
	if err != nil {
		return nil, err
	}
	reg := l.Metrics()
	stop := reg.Timer("trace.profile").Start()
	if err := l.FanOut([]WindowedConsumer{p}); err != nil {
		return nil, err
	}
	curves := p.Curves()
	stop()
	p.PublishMetrics(reg, curves)
	return curves, nil
}
