package schedule

// Property test for the invariant record-only machines rely on: the block
// access stream of a schedule does not depend on the cache it runs
// against, because no scheduler reads cache state. Recording without
// simulating a cache must therefore yield exactly the stream a machine
// with a real (small, thrashing) cache produces.

import (
	"math/rand"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/randgraph"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// simulatedStream runs a fresh plan of s on a machine simulating cfg and
// returns every block access it made, warm-up included.
func simulatedStream(t *testing.T, g *sdf.Graph, s Scheduler, env Env, cfg cachesim.Config, warm, measured int64) []int64 {
	t.Helper()
	plan, err := s.Prepare(g, env)
	if err != nil {
		t.Fatalf("%s prepare: %v", s.Name(), err)
	}
	var stream []int64
	m, err := exec.NewMachine(g, exec.Config{
		Cache: cfg, Caps: plan.Caps,
		Recorder: trace.RecorderFunc(func(blk int64) { stream = append(stream, blk) }),
	})
	if err != nil {
		t.Fatalf("%s machine: %v", s.Name(), err)
	}
	if err := plan.Runner.Run(m, warm); err != nil {
		t.Fatalf("%s warm: %v", s.Name(), err)
	}
	if err := plan.Runner.Run(m, m.SourceFirings()+measured); err != nil {
		t.Fatalf("%s run: %v", s.Name(), err)
	}
	if m.Cache().Stats().Misses == 0 {
		t.Fatalf("%s: the simulated cache %+v never missed", s.Name(), cfg)
	}
	return stream
}

func TestPropRecordOnlyStreamIsCapacityIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	build := func(i int) (*sdf.Graph, error) {
		switch i % 3 {
		case 0:
			return randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
				Nodes: 4 + rng.Intn(8), StateMin: 0, StateMax: 120, RateMax: 3,
			})
		case 1:
			return randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
				Layers: 2 + rng.Intn(2), Width: 1 + rng.Intn(3),
				StateMin: 8, StateMax: 96, ExtraEdges: 1,
			})
		default:
			return randgraph.RandomSplitJoin(rng, randgraph.SplitJoinSpec{
				Branches: 2 + rng.Intn(2), BranchDepth: 1 + rng.Intn(2),
				StateMin: 8, StateMax: 96, RateMax: 2,
			})
		}
	}
	env := Env{M: 128, B: 16}
	const warm, measured = 64, 256
	for i := 0; i < 9; i++ {
		g, err := build(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schedulersForGraph(g) {
			plan, err := s.Prepare(g, env)
			if err != nil {
				t.Fatalf("graph %d %s prepare: %v", i, s.Name(), err)
			}
			var recorded []int64
			rec := trace.RecorderFunc(func(blk int64) { recorded = append(recorded, blk) })
			if _, _, err := record(g, s, plan, env.B, warm, measured, rec, func() {}); err != nil {
				t.Fatalf("graph %d %s record: %v", i, s.Name(), err)
			}
			for _, cfg := range []cachesim.Config{
				{Capacity: 4 * env.B, Block: env.B},                                 // 4-line fully-associative LRU
				{Capacity: 8 * env.B, Block: env.B, Ways: 2},                        // 4 sets x 2 ways LRU
				{Capacity: 8 * env.B, Block: env.B, Ways: 4, Policy: cachesim.FIFO}, // 2 sets x 4 ways FIFO
			} {
				sim := simulatedStream(t, g, s, env, cfg, warm, measured)
				if len(sim) != len(recorded) {
					t.Fatalf("graph %d (%s) %s cache %+v: %d accesses, record-only %d",
						i, g.Name(), s.Name(), cfg, len(sim), len(recorded))
				}
				for j := range sim {
					if sim[j] != recorded[j] {
						t.Fatalf("graph %d (%s) %s cache %+v: access %d is block %d, record-only %d",
							i, g.Name(), s.Name(), cfg, j, sim[j], recorded[j])
					}
				}
			}
		}
	}
}
