package trace_test

import (
	"math"
	"math/rand"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// placementStream is a reuse-structured stream over nblocks distinct
// blocks spread across the id ranges that exercise set placement:
// negative ids, zero, ids straddling the profilers' dense-index limit
// (1<<24), far-away ids, and the int64 extremes.
func placementStream(seed int64, n int, nblocks int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	bases := []int64{-nblocks / 2, 0, 1<<24 - nblocks/4, -(1 << 40), 1 << 40}
	out := randomStream(rng, n, nblocks)
	for i, b := range out {
		out[i] = bases[b%int64(len(bases))] + b
		if rng.Intn(64) == 0 {
			out[i] = []int64{-1, 0, math.MinInt64, math.MaxInt64}[rng.Intn(4)]
		}
	}
	return out
}

// TestPlacementMatchesCachesim pins the profilers' set placement (mask and
// shift for power-of-two set counts, floored division otherwise) to the
// cache simulator, not to each other: for every set count and way count,
// OrgProfiler, AssocProfiler and FIFOProfiler must report exactly the
// misses cachesim.Cache.AccessBlock counts under LRU and FIFO. The
// larger stream gives the low set counts stacks deep enough to move onto
// the Fenwick timeline and compact it.
func TestPlacementMatchesCachesim(t *testing.T) {
	ways := []int64{1, 2, 3, 8}
	for seed := int64(1); seed <= 3; seed++ {
		n, nblocks := 6000, int64(96)
		if seed == 3 {
			n, nblocks = 15000, 1000
		}
		stream := placementStream(seed, n, nblocks)
		var specs []trace.OrgSpec
		for _, sets := range []int64{1, 2, 3, 4, 5, 8, 64} {
			specs = append(specs, trace.OrgSpec{Sets: sets, FIFOWays: ways})
		}
		org, err := trace.NewOrgProfiler(specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, blk := range stream {
			org.Touch(blk)
		}
		orgCurves := org.Curves()
		for i, sp := range specs {
			assoc := trace.NewAssocProfiler(sp.Sets)
			fifo := trace.NewFIFOProfiler(sp.Sets, ways)
			for _, blk := range stream {
				assoc.Touch(blk)
				fifo.Touch(blk)
			}
			lru, fc := assoc.Curve(), fifo.Curve()
			for _, w := range ways {
				for _, pol := range []cachesim.Policy{cachesim.LRU, cachesim.FIFO} {
					c, err := cachesim.New(cachesim.Config{Capacity: sp.Sets * w, Block: 1, Ways: int(w), Policy: pol})
					if err != nil {
						t.Fatal(err)
					}
					for _, blk := range stream {
						c.AccessBlock(blk, false)
					}
					want := c.Stats()
					var standalone int64
					if pol == cachesim.LRU {
						standalone = lru.Misses(w)
					} else {
						standalone, _ = fc.Misses(w)
					}
					orgMisses, ok := orgCurves[i].Misses(w, pol == cachesim.FIFO)
					if !ok || orgMisses != want.Misses || standalone != want.Misses {
						t.Errorf("seed %d sets %d ways %d %v: cachesim %d misses, OrgProfiler %d, standalone %d",
							seed, sp.Sets, w, pol, want.Misses, orgMisses, standalone)
					}
					if lru.Cold != want.Compulsory || fc.Cold != want.Compulsory || lru.Accesses != want.Accesses {
						t.Errorf("seed %d sets %d ways %d %v: cold %d/%d accesses %d, cachesim compulsory %d accesses %d",
							seed, sp.Sets, w, pol, lru.Cold, fc.Cold, lru.Accesses, want.Compulsory, want.Accesses)
					}
				}
			}
		}
		// One set is also the fully-associative cache (Ways 0).
		for _, lines := range []int64{8, 256} {
			fa, err := cachesim.New(cachesim.Config{Capacity: lines, Block: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, blk := range stream {
				fa.AccessBlock(blk, false)
			}
			if got := orgCurves[0].LRU.Full().Misses(lines); got != fa.Stats().Misses {
				t.Errorf("seed %d: fully-associative %d lines: curve %d misses, cachesim %d", seed, lines, got, fa.Stats().Misses)
			}
		}
	}
}
