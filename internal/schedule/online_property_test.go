package schedule

// Property test for profiling while recording: MeasureCurveOrgs feeds an
// OrgProfiler straight from the machine's recorder tap, and its curves
// must be exactly those of the two-pass route it replaced — record the
// run into a trace.Log, then replay the log through ProfileOrgsJobs.

import (
	"math/rand"
	"reflect"
	"testing"

	"streamsched/internal/randgraph"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

func TestPropMeasureCurveOrgsOnlineMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
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
	// LRU-only and FIFO-replaying organisations, fully associative
	// included, with power-of-two and other set counts.
	orgs := []trace.OrgSpec{
		{Sets: 2},
		{Sets: 4, FIFOWays: []int64{1, 2, 4}},
		{Sets: 3, FIFOWays: []int64{2}},
		{Sets: 1, FIFOWays: []int64{4, 16}},
	}
	env := Env{M: 128, B: 16}
	const measured = 256
	for i := 0; i < 9; i++ {
		g, err := build(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schedulersForGraph(g) {
			for _, warm := range []int64{0, 48} {
				online, err := MeasureCurveOrgs(g, s, env, env.B, warm, measured, orgs)
				if err != nil {
					t.Fatalf("graph %d %s warm %d: %v", i, s.Name(), warm, err)
				}
				plan, err := s.Prepare(g, env)
				if err != nil {
					t.Fatalf("graph %d %s prepare: %v", i, s.Name(), err)
				}
				log := trace.NewLog()
				log.SetMetrics(nil)
				if _, _, err := record(g, s, plan, env.B, warm, measured, log, log.MarkWindow); err != nil {
					t.Fatalf("graph %d %s record: %v", i, s.Name(), err)
				}
				replay, err := trace.ProfileOrgsJobs(log, append([]trace.OrgSpec{{Sets: 1}}, orgs...), 1, 1)
				logLen := log.Len()
				log.Close()
				if err != nil {
					t.Fatalf("graph %d %s replay: %v", i, s.Name(), err)
				}
				where := g.Name() + " " + s.Name()
				if online.TraceLen != logLen {
					t.Fatalf("%s warm %d: online TraceLen %d, log holds %d", where, warm, online.TraceLen, logLen)
				}
				if !reflect.DeepEqual(online.Curve, replay[0].LRU.Full()) {
					t.Fatalf("%s warm %d: fully-associative curve differs: online %d accesses %d cold, replay %d/%d",
						where, warm, online.Curve.Accesses, online.Curve.Cold,
						replay[0].LRU.Full().Accesses, replay[0].LRU.Full().Cold)
				}
				if !reflect.DeepEqual(online.Orgs, replay[1:]) {
					t.Fatalf("%s warm %d: organisation curves differ from the replayed log's", where, warm)
				}
				if online.Curve.Accesses == 0 || (warm > 0 && online.Curve.Accesses == online.TraceLen) {
					t.Fatalf("%s warm %d: window of %d accesses in a trace of %d", where, warm, online.Curve.Accesses, online.TraceLen)
				}
			}
		}
	}
}
