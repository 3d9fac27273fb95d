package trace

import (
	"fmt"
	"runtime"

	"streamsched/internal/obs"
)

// Organisation profiling. Per-set Mattson stacks and per-set FIFO rows
// are mutually independent — set index is a pure function of the block
// id — so the per-set state of every OrgSpec can be partitioned across W
// workers that each scan the full decoded stream (via FanOut) and touch
// only the structures they own. One partition serves every spec at once:
// a structure's owner is (set + salt) mod W, where the salt is a
// deterministic per-structure rotation so the heavyweight singleton
// structures (a fully-associative spec has one set — one Fenwick stack,
// one FIFO row per way count) land on distinct workers instead of piling
// onto worker 0. For nested power-of-two set counts the rotation
// preserves the property that each access touches at most one worker's
// state per structure, so work per worker is ~1/W of the whole. W = 1 is
// the sequential profiler: one shard owning every set.
//
// The merge is exact, not approximate: every per-set structure is
// identical to the one a single worker would have built (same dense
// within-set id space, same hybrid list→Fenwick upgrade, same FIFO rows),
// so reassembling the per-set curves in set order reproduces the curves
// byte for byte at any W. FIFO Accesses/Cold totals are taken from the
// spec's LRU curve: FIFO and LRU count the same in-window accesses, and a
// block's first-ever access is first-ever in its set's stack exactly when
// it is first-ever globally, so the totals coincide by construction (the
// org tests assert this against a standalone FIFOProfiler).

// OrgShards partitions the per-set profiler state of a spec list across a
// fixed number of workers. Each worker drives its shard — a
// WindowedConsumer — over the full access stream; Curves then reassembles
// the exact per-spec curves. Construct with NewOrgShards.
type OrgShards struct {
	specs []OrgSpec
	n     int
	plans []shardPlan
	parts []*OrgShard

	// assocParts[i][w] is worker w's slice of spec i's per-set LRU stacks
	// (nil when w owns none); fifoParts[i][wi][w] likewise for the spec's
	// wi-th replayed FIFO way count.
	assocParts [][]*assocBank
	fifoParts  [][][]*fifoBank
}

// shardPlan records one spec's structure→worker rotation.
type shardPlan struct {
	sets      int64
	assocSalt int
	fifoWays  []int64 // deduplicated, ascending: FIFOCurve's order
}

// OrgShard is one worker's partition: the per-set stacks and FIFO rows it
// owns across every spec. It implements WindowedConsumer; Touch routes
// each access by set index and ignores sets owned elsewhere.
type OrgShard struct {
	n       int64
	specs   []shardSpecState
	touches int64 // structure touches this shard performed (obs)
}

// shardSpecState is one spec's owned structures within a shard. Specs a
// worker owns nothing of are pruned at build time.
type shardSpecState struct {
	sets  int64
	assoc *assocBank // nil when this worker owns no LRU sets of the spec
	fifo  []*fifoBank
}

// shardResidue is the residue class mod n that worker w owns for a
// structure rotated by salt: (set + salt) mod n == w  ⇔  set mod n == r.
func shardResidue(w, salt, n int) int64 {
	return int64(((w-salt)%n + n) % n)
}

// localSets is how many of sets fall in residue class r mod n.
func localSets(sets, r, n int64) int64 {
	if r >= sets {
		return 0
	}
	return (sets-1-r)/n + 1
}

// NewOrgShards validates the specs and builds every worker's partition
// for n workers. It panics if n < 1 (programmer error, like
// NewAssocProfiler's set count).
func NewOrgShards(specs []OrgSpec, n int) (*OrgShards, error) {
	if n < 1 {
		panic("trace: OrgShards needs at least one worker")
	}
	s := &OrgShards{
		specs:      specs,
		n:          n,
		plans:      make([]shardPlan, len(specs)),
		parts:      make([]*OrgShard, n),
		assocParts: make([][]*assocBank, len(specs)),
		fifoParts:  make([][][]*fifoBank, len(specs)),
	}
	for w := range s.parts {
		s.parts[w] = &OrgShard{n: int64(n)}
	}
	salt := 0
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		plan := shardPlan{sets: sp.Sets, assocSalt: salt, fifoWays: uniqueWays(sp.FIFOWays)}
		s.plans[i] = plan

		states := make([]*shardSpecState, n) // lazily created per worker
		state := func(w int) *shardSpecState {
			if states[w] == nil {
				s.parts[w].specs = append(s.parts[w].specs, shardSpecState{sets: sp.Sets})
				states[w] = &s.parts[w].specs[len(s.parts[w].specs)-1]
			}
			return states[w]
		}
		s.assocParts[i] = make([]*assocBank, n)
		for w := 0; w < n; w++ {
			if a := newAssocBank(sp.Sets, shardResidue(w, salt, n), int64(n)); a != nil {
				state(w).assoc = a
				s.assocParts[i][w] = a
			}
		}
		salt++
		s.fifoParts[i] = make([][]*fifoBank, len(plan.fifoWays))
		for wi, ways := range plan.fifoWays {
			s.fifoParts[i][wi] = make([]*fifoBank, n)
			for w := 0; w < n; w++ {
				if f := newFIFOBank(sp.Sets, shardResidue(w, salt, n), int64(n), ways); f != nil {
					state(w).fifo = append(state(w).fifo, f)
					s.fifoParts[i][wi][w] = f
				}
			}
			salt++
		}
	}
	return s, nil
}

// Workers returns the worker count the partition was built for.
func (s *OrgShards) Workers() int { return s.n }

// Shard returns worker w's partition, a WindowedConsumer to be driven
// over the full access stream (normally via Log.FanOut).
func (s *OrgShards) Shard(w int) *OrgShard { return s.parts[w] }

// ResetCounts starts the measured window on this shard's structures.
func (s *OrgShard) ResetCounts() {
	for i := range s.specs {
		sp := &s.specs[i]
		if sp.assoc != nil {
			sp.assoc.resetCounts()
		}
		for _, f := range sp.fifo {
			f.misses = 0
		}
	}
}

// Touch routes one access: for each spec the worker owns structures of,
// the block's set index is computed once and only owned structures are
// fed. Non-owned sets cost one modulo and a compare per spec; a single
// worker owns everything and skips the modulo.
func (s *OrgShard) Touch(blk int64) {
	n := s.n
	for i := range s.specs {
		sp := &s.specs[i]
		set := blk % sp.sets
		if set < 0 {
			set += sp.sets
		}
		// set = k*n + res: k is the set's local index in the bank of
		// residue res.
		k, res := set, int64(0)
		if n > 1 {
			k = set / n
			res = set - k*n
		}
		if a := sp.assoc; a != nil && res == a.r {
			// Same dense within-set id AssocProfiler feeds.
			a.per[k].touch((blk - set) / sp.sets)
			s.touches++
		}
		for _, f := range sp.fifo {
			if res == f.r {
				f.touch(k, blk)
				s.touches++
			}
		}
	}
}

// Curves reassembles the exact per-spec curves from the worker
// partitions, in spec order. Every per-set structure is the one a single
// worker would have built, so the curves do not depend on the worker
// count.
func (s *OrgShards) Curves() []*OrgCurves {
	out := make([]*OrgCurves, len(s.specs))
	for i, sp := range s.specs {
		plan := s.plans[i]
		ac := assocCurve(plan.sets, int64(s.n), func(set int64) *assocBank {
			return s.assocParts[i][(int(set)+plan.assocSalt)%s.n]
		})
		oc := &OrgCurves{Spec: sp, LRU: ac}
		if len(plan.fifoWays) > 0 {
			fc := &FIFOCurve{
				Sets: plan.sets,
				// FIFO and LRU count the same in-window accesses and
				// first-ever blocks; see the package comment.
				Accesses: ac.Accesses,
				Cold:     ac.Cold,
				ways:     append([]int64(nil), plan.fifoWays...),
				misses:   make([]int64, len(plan.fifoWays)),
			}
			for wi := range plan.fifoWays {
				for _, f := range s.fifoParts[i][wi] {
					if f != nil {
						fc.misses[wi] += f.misses
					}
				}
			}
			oc.FIFO = fc
		}
		out[i] = oc
	}
	return out
}

// TimelineOps returns the total Fenwick-timeline operation count across
// every worker's upgraded set stacks — the same total at any worker
// count, since the per-set structures are identical.
func (s *OrgShards) TimelineOps() int64 {
	var ops int64
	for _, part := range s.parts {
		for i := range part.specs {
			if a := part.specs[i].assoc; a != nil {
				ops += a.timelineOps()
			}
		}
	}
	return ops
}

// PublishMetrics records a completed pass's totals into reg: the counted
// access total, the Fenwick work it cost, the pass count, and the
// per-shard touch counters (profile.shard.<w>.touches). No-op when reg
// is nil.
func (s *OrgShards) PublishMetrics(reg *obs.Registry, curves []*OrgCurves) {
	if reg == nil {
		return
	}
	var accesses int64
	if len(curves) > 0 {
		accesses = curves[0].LRU.Accesses
	}
	reg.Counter("trace.profile.accesses").Add(accesses)
	reg.Counter("trace.profile.fenwick.ops").Add(s.TimelineOps())
	reg.Counter("trace.profile.passes").Add(1)
	for w, part := range s.parts {
		reg.Counter(fmt.Sprintf("profile.shard.%d.touches", w)).Add(part.touches)
	}
}

// ProfileWorkers resolves a jobs knob to a worker count: <= 0 means one
// worker per available CPU (GOMAXPROCS), larger values are taken as
// given. Shared by every ProfileJobs entry point and schedule.Env.
func ProfileWorkers(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// OrgShardUnits counts the independently-shardable structures across a
// spec list: each spec contributes one per-set LRU stack per set plus one
// FIFO row per set per distinct replayed way count. A worker beyond this
// count would own nothing — a grid of Sets=1 structures, say, cannot use
// more workers than structures — so the ProfileJobs entry points cap the
// pool at it (the adaptive jobs heuristic; the chosen count is published
// as profile.shard.workers).
func OrgShardUnits(specs []OrgSpec) int64 {
	var units int64
	for _, sp := range specs {
		units += sp.Sets * int64(1+len(uniqueWays(sp.FIFOWays)))
	}
	return units
}

// capWorkers applies the adaptive heuristic: never more workers than
// independent units (floor 1).
func capWorkers(w int, units int64) int {
	if units < 1 {
		units = 1
	}
	if int64(w) > units {
		return int(units)
	}
	return w
}

// ProfileOrgsJobs replays the log once and profiles every organisation
// from that single pass, honouring the log's measured window (accesses
// before WindowStart warm the caches but are not counted). The per-set
// state is sharded across a worker pool: jobs <= 0 uses one worker per
// CPU, and larger values pin the worker count — capped at
// OrgShardUnits(specs), since a worker with no structures is pure
// overhead. One worker replays inline on the calling goroutine. The
// curves, in spec order, do not depend on the worker count. The
// decodeJobs parameter is deprecated: ignored; decoding is one in-order
// pass.
func ProfileOrgsJobs(l *Log, specs []OrgSpec, jobs, decodeJobs int) ([]*OrgCurves, error) {
	w := capWorkers(ProfileWorkers(jobs), OrgShardUnits(specs))
	shards, err := NewOrgShards(specs, w)
	if err != nil {
		return nil, err
	}
	reg := l.Metrics()
	stop := reg.Timer("trace.profile").Start()
	consumers := make([]WindowedConsumer, w)
	for i := range consumers {
		consumers[i] = shards.Shard(i)
	}
	if err := l.FanOut(consumers); err != nil {
		return nil, err
	}
	curves := shards.Curves()
	stop()
	shards.PublishMetrics(reg, curves)
	return curves, nil
}
