package trace

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"streamsched/internal/obs"
)

// randomShardLog builds a trace with a mix of strided, looping, and random
// accesses (including negative block ids, which the set routing must
// floor-fix), windowed at a random position.
func randomShardLog(t *testing.T, rng *rand.Rand, n int, spill bool) *Log {
	t.Helper()
	l := NewLog()
	if spill {
		l.SetSpillThreshold(1) // spill every sealed chunk
		n *= 30                // enough encoded bytes to actually seal chunks
	}
	blocks := int64(rng.Intn(600) + 8)
	warm := rng.Intn(n + 1)
	for i := 0; i < n; i++ {
		if i == warm {
			l.MarkWindow()
		}
		var blk int64
		switch rng.Intn(4) {
		case 0:
			blk = int64(i) % blocks // streaming stride
		case 1:
			blk = int64(rng.Intn(int(blocks))) // uniform reuse
		case 2:
			blk = int64(rng.Intn(32)) // hot set
		default:
			blk = -int64(rng.Intn(64)) - 1 // negative ids
		}
		l.RecordBlock(blk)
	}
	if warm >= n {
		l.MarkWindow() // empty window: reset fires at end
	}
	if spill && !l.Spilled() {
		t.Fatal("spill variant did not spill; grow the trace")
	}
	return l
}

// shardSpecPool mixes set counts (1 = fully associative, powers of two,
// odd counts), FIFO way lists (incl. > fifoScanLimit to exercise the hash
// membership path), and LRU-only specs.
func shardSpecPool() [][]OrgSpec {
	return [][]OrgSpec{
		{{Sets: 1}},
		{{Sets: 1, FIFOWays: []int64{32, 64, 128}}, {Sets: 4, FIFOWays: []int64{8}}, {Sets: 8, FIFOWays: []int64{8, 4}}, {Sets: 16, FIFOWays: []int64{8, 4}}, {Sets: 32, FIFOWays: []int64{4, 1}}, {Sets: 64, FIFOWays: []int64{1}}, {Sets: 128, FIFOWays: []int64{1}}},
		{{Sets: 3, FIFOWays: []int64{2, 24}}, {Sets: 5}, {Sets: 7, FIFOWays: []int64{1, 1, 3}}},
		{{Sets: 2, FIFOWays: []int64{17}}, {Sets: 1, FIFOWays: []int64{200}}},
	}
}

// standaloneOrgCurves profiles each spec with its own AssocProfiler and
// FIFOProfiler, one windowed replay per profiler — the reference the
// one-pass OrgProfiler must reproduce exactly, FIFO Accesses/Cold totals
// included.
func standaloneOrgCurves(t *testing.T, l *Log, specs []OrgSpec) []*OrgCurves {
	t.Helper()
	out := make([]*OrgCurves, len(specs))
	for i, sp := range specs {
		a := NewAssocProfiler(sp.Sets)
		if err := l.ForEachWindowed(a.ResetCounts, a.Touch); err != nil {
			t.Fatal(err)
		}
		out[i] = &OrgCurves{Spec: sp, LRU: a.Curve()}
		if len(sp.FIFOWays) > 0 {
			f := NewFIFOProfiler(sp.Sets, sp.FIFOWays)
			if err := l.ForEachWindowed(f.ResetCounts, f.Touch); err != nil {
				t.Fatal(err)
			}
			out[i].FIFO = f.Curve()
		}
	}
	return out
}

// TestProfileOrgsJobsMatchesSequential: for random traces and spec
// grids, spilled or in-memory, ProfileOrgsJobs returns the standalone
// profilers' curves whatever jobs value it is given, decodes the trace
// exactly once per pass, and runs on one worker.
func TestProfileOrgsJobsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, specs := range shardSpecPool() {
		for _, spill := range []bool{false, true} {
			l := randomShardLog(t, rng, 3000+rng.Intn(2000), spill)
			reg := obs.NewRegistry()
			l.SetMetrics(reg)
			want := standaloneOrgCurves(t, l, specs)
			for _, jobs := range []int{0, 1, 2, 1024} {
				before := l.Replays()
				got, err := ProfileOrgsJobs(l, specs, jobs, 1)
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				if l.Replays() != before+1 {
					t.Fatalf("jobs=%d: %d replays for one pass", jobs, l.Replays()-before)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("specs %v spill=%v jobs=%d: curves differ from the standalone profilers", specs, spill, jobs)
				}
			}
			if w := reg.Snapshot().Gauges["profile.shard.workers"]; w != 1 {
				t.Fatalf("profile.shard.workers = %d, want 1", w)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestOrgFIFOMatchesFIFOProfiler pins the FIFO half against the
// standalone FIFOProfiler the hierarchy's L2 groups use: the same
// FIFOCurve — misses, and the Accesses/Cold totals OrgProfiler takes from
// the LRU curve.
func TestOrgFIFOMatchesFIFOProfiler(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, specs := range shardSpecPool() {
		l := randomShardLog(t, rng, 4000, false)
		curves, err := ProfileOrgsJobs(l, specs, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, sp := range specs {
			if len(sp.FIFOWays) == 0 {
				continue
			}
			p := NewFIFOProfiler(sp.Sets, sp.FIFOWays)
			if err := l.ForEachWindowed(p.ResetCounts, p.Touch); err != nil {
				t.Fatal(err)
			}
			if want := p.Curve(); !reflect.DeepEqual(curves[i].FIFO, want) {
				t.Fatalf("spec %v: FIFO curve %+v, FIFOProfiler %+v", sp, curves[i].FIFO, want)
			}
		}
	}
}

// TestProfileOrgsJobsWindowEdges pins the window protocol's corners
// against the standalone profilers: window at 0 (whole trace measured),
// window at Len (empty window), and an empty log.
func TestProfileOrgsJobsWindowEdges(t *testing.T) {
	specs := []OrgSpec{{Sets: 1, FIFOWays: []int64{4}}, {Sets: 4}}
	for _, mark := range []int{-1, 0, 50} { // -1: never mark (window 0)
		l := NewLog()
		for i := 0; i < 50; i++ {
			if i == mark {
				l.MarkWindow()
			}
			l.RecordBlock(int64(i % 13))
		}
		if mark == 50 {
			l.MarkWindow()
		}
		got, err := ProfileOrgsJobs(l, specs, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := standaloneOrgCurves(t, l, specs); !reflect.DeepEqual(got, want) {
			t.Fatalf("mark=%d: curves differ from the standalone profilers", mark)
		}
	}

	empty := NewLog()
	got, err := ProfileOrgsJobs(empty, specs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := standaloneOrgCurves(t, empty, specs); !reflect.DeepEqual(got, want) {
		t.Fatal("empty log: curves differ from the standalone profilers")
	}
}

// recordingConsumer captures the stream a FanOut consumer sees, with the
// reset position, for comparison against ForEachWindowed.
type recordingConsumer struct {
	blks    []int64
	resetAt int
	resets  int
}

func (r *recordingConsumer) ResetCounts() { r.resetAt = len(r.blks); r.resets++ }
func (r *recordingConsumer) Touch(blk int64) {
	r.blks = append(r.blks, blk)
}

// TestFanOutMatchesForEachWindowed checks the pipeline's delivery
// contract directly: every consumer sees the full stream in order with
// exactly one reset at the window position, whether it replays inline
// (one consumer) or behind the decoder goroutine (several).
func TestFanOutMatchesForEachWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		spill := trial%2 == 1
		n := 1 + trial%3*2 // 1, 3, 5 consumers
		l := randomShardLog(t, rng, 2500+rng.Intn(3000), spill)

		var wantBlks []int64
		wantReset := -1
		if err := l.ForEachWindowed(
			func() { wantReset = len(wantBlks) },
			func(blk int64) { wantBlks = append(wantBlks, blk) },
		); err != nil {
			t.Fatal(err)
		}

		cons := make([]WindowedConsumer, n)
		recs := make([]*recordingConsumer, n)
		for i := range cons {
			recs[i] = &recordingConsumer{resetAt: -1}
			cons[i] = recs[i]
		}
		if err := l.FanOut(cons); err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if r.resets != 1 {
				t.Fatalf("consumers=%d consumer %d: %d resets", n, i, r.resets)
			}
			if r.resetAt != wantReset {
				t.Fatalf("consumers=%d consumer %d: reset at %d, want %d", n, i, r.resetAt, wantReset)
			}
			if !reflect.DeepEqual(r.blks, wantBlks) {
				t.Fatalf("consumers=%d consumer %d: stream differs from ForEachWindowed", n, i)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProfileOrgsJobsConcurrentLogs profiles independent logs in
// parallel from multiple goroutines — the Sweep shape — to give the race
// detector interleavings across concurrent passes.
func TestProfileOrgsJobsConcurrentLogs(t *testing.T) {
	specs := []OrgSpec{{Sets: 1, FIFOWays: []int64{8}}, {Sets: 8, FIFOWays: []int64{2}}}
	logs := make([]*Log, 4)
	wants := make([][]*OrgCurves, len(logs))
	for g := range logs {
		logs[g] = randomShardLog(t, rand.New(rand.NewSource(int64(g))), 4000, g%2 == 0)
		wants[g] = standaloneOrgCurves(t, logs[g], specs)
	}
	var wg sync.WaitGroup
	for g := range logs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := ProfileOrgsJobs(logs[g], specs, 1, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, wants[g]) {
				t.Error("curves differ under concurrent profiling")
			}
		}(g)
	}
	wg.Wait()
}
