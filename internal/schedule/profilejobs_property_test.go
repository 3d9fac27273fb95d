package schedule

// Property test for the sharded hierarchy profiling engine at the
// measurement API: Env.ProfileJobs is purely a speed knob, so MeasureHier
// must return byte-identical results for any worker count on any graph.
// It runs the full record→profile path end to end (random pipelines and
// dags, a two-level grid with set-associative and FIFO levels),
// complementing the hierarchy-level equivalence tests that replay one
// shared log under many worker counts.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/randgraph"
	"streamsched/internal/sdf"
)

// profileJobsVariants is the worker-count sweep: the one-worker
// reference, the smallest genuinely-sharded pool, whatever this machine's
// CPU count resolves to (the zero value's meaning), and a count past
// the test grid's unit cap so the cap engages.
func profileJobsVariants() []int {
	return []int{1, 2, runtime.NumCPU(), 1024}
}

func TestPropProfileJobsHierInvariantOnRandomGraphs(t *testing.T) {
	env := Env{M: 256, B: 16}
	spec := hierarchy.HierSpec{
		Block: 16,
		L1s: []hierarchy.Level{
			hierLv(256, 16, 1, cachesim.LRU),
			hierLv(256, 16, 0, cachesim.LRU),
			hierLv(512, 16, 4, cachesim.FIFO),
		},
		L2s: []hierarchy.Level{
			hierLv(2048, 16, 0, cachesim.LRU),
			hierLv(2048, 16, 8, cachesim.FIFO),
			hierLv(4096, 64, 0, cachesim.LRU),
		},
	}
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(800 + seed))
		var g *sdf.Graph
		var err error
		if seed%2 == 0 {
			g, err = randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
				Nodes: 6 + rng.Intn(8), StateMin: 16, StateMax: 160, RateMax: 3,
			})
		} else {
			g, err = randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
				Layers: 2 + rng.Intn(3), Width: 1 + rng.Intn(3),
				StateMin: 16, StateMax: 128, ExtraEdges: 2,
			})
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range []Scheduler{FlatTopo{}, Scaled{S: 3}} {
			measure := func(jobs int) *hierarchy.HierCurves {
				e := env
				e.ProfileJobs = jobs
				hr, err := MeasureHier(g, s, e, spec, 96, 384)
				if err != nil {
					t.Fatalf("%s MeasureHier(jobs=%d): %v", s.Name(), jobs, err)
				}
				return hr.Curves
			}
			ref := measure(1)
			for _, jobs := range profileJobsVariants()[1:] {
				if got := measure(jobs); !reflect.DeepEqual(got, ref) {
					t.Errorf("seed %d %s: jobs=%d hierarchy curves differ from one worker", seed, s.Name(), jobs)
				}
			}
		}
	}
}
