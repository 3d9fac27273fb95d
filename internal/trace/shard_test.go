package trace

import (
	"math/rand"
	"reflect"
	"runtime"
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

// TestProfileOrgsJobsMatchesSequential is the shard router's core
// property: for random traces and spec grids, the curves must be
// byte-identical to the one-worker pass at every worker count — 2, 3,
// NumCPU, and past the unit cap — spilled or in-memory, and the trace
// must still be decoded exactly once per pass.
func TestProfileOrgsJobsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	jobsList := []int{2, 3, runtime.NumCPU(), 0, 1024}
	trials := 2
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		for _, specs := range shardSpecPool() {
			for _, spill := range []bool{false, true} {
				l := randomShardLog(t, rng, 3000+rng.Intn(2000), spill)
				want, err := ProfileOrgsJobs(l, specs, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, jobs := range jobsList {
					before := l.Replays()
					got, err := ProfileOrgsJobs(l, specs, jobs, 1)
					if err != nil {
						t.Fatalf("jobs=%d: %v", jobs, err)
					}
					if l.Replays() != before+1 {
						t.Fatalf("jobs=%d: %d replays for one pass", jobs, l.Replays()-before)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d specs %v spill=%v jobs=%d: sharded curves differ from one worker", trial, specs, spill, jobs)
					}
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestOrgFIFOMatchesFIFOProfiler pins the FIFO half of the merge against
// the standalone FIFOProfiler the hierarchy's L2 groups use: the same
// FIFOCurve — misses, and the Accesses/Cold totals OrgShards takes from
// the LRU curve — at one worker and at several.
func TestOrgFIFOMatchesFIFOProfiler(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, specs := range shardSpecPool() {
		l := randomShardLog(t, rng, 4000, false)
		for _, jobs := range []int{1, 3} {
			curves, err := ProfileOrgsJobs(l, specs, jobs, 1)
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
					t.Fatalf("jobs=%d spec %v: FIFO curve %+v, FIFOProfiler %+v", jobs, sp, curves[i].FIFO, want)
				}
			}
		}
	}
}

// TestProfileOrgsJobsWindowEdges pins the window protocol's corners:
// window at 0 (whole trace measured), window at Len (empty window), and
// an empty log.
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
		want, err := ProfileOrgsJobs(l, specs, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ProfileOrgsJobs(l, specs, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mark=%d: sharded curves differ", mark)
		}
	}

	empty := NewLog()
	want, err := ProfileOrgsJobs(empty, specs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProfileOrgsJobs(empty, specs, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("empty log: sharded curves differ")
	}
}

// TestProfileOrgsJobsMoreWorkersThanState covers worker counts exceeding
// every structure count: extra shards own nothing and must stay inert.
func TestProfileOrgsJobsMoreWorkersThanState(t *testing.T) {
	l := NewLog()
	for i := 0; i < 500; i++ {
		l.RecordBlock(int64(i % 9))
	}
	l.MarkWindow()
	for i := 0; i < 500; i++ {
		l.RecordBlock(int64((i * 3) % 9))
	}
	specs := []OrgSpec{{Sets: 2, FIFOWays: []int64{2}}}
	want, err := ProfileOrgsJobs(l, specs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProfileOrgsJobs(l, specs, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded curves differ with idle workers")
	}

	// The adaptive heuristic must still tolerate direct construction with
	// more workers than structures: extra shards own nothing and stay
	// inert (the ProfileOrgsJobs entry point itself caps at OrgShardUnits,
	// asserted in TestProfileOrgsJobsAdaptiveWorkerCap).
	shards, err := NewOrgShards(specs, 64)
	if err != nil {
		t.Fatal(err)
	}
	cons := make([]WindowedConsumer, 64)
	for i := range cons {
		cons[i] = shards.Shard(i)
	}
	if err := l.FanOut(cons); err != nil {
		t.Fatal(err)
	}
	if direct := shards.Curves(); !reflect.DeepEqual(direct, want) {
		t.Fatal("directly-constructed oversized shard pool differs")
	}
}

// TestProfileOrgsJobsAdaptiveWorkerCap asserts the adaptive jobs
// heuristic: the chosen shard worker count (profile.shard.workers) is
// capped at the grid's independent unit count, and the decode worker
// gauge (profile.pipeline.decode.workers) reports the one in-order
// decoder.
func TestProfileOrgsJobsAdaptiveWorkerCap(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLog()
	l.SetMetrics(reg)
	for i := 0; i < 200; i++ {
		l.RecordBlock(int64(i % 9))
	}
	l.MarkWindow()
	for i := 0; i < 800; i++ {
		l.RecordBlock(int64((i * 3) % 9))
	}
	specs := []OrgSpec{{Sets: 2, FIFOWays: []int64{2, 2}}} // 2 LRU sets + 2 FIFO rows = 4 units
	if u := OrgShardUnits(specs); u != 4 {
		t.Fatalf("OrgShardUnits = %d, want 4", u)
	}
	if _, err := ProfileOrgsJobs(l, specs, 64, 16); err != nil { // decodeJobs is ignored
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if w := snap.Gauges["profile.shard.workers"]; w != 4 {
		t.Fatalf("profile.shard.workers = %d, want the 4-unit cap", w)
	}
	if w := snap.Gauges["profile.pipeline.decode.workers"]; w != 1 {
		t.Fatalf("profile.pipeline.decode.workers = %d, want 1", w)
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

// TestProfileOrgsJobsConcurrentLogs hammers independent logs profiled in
// parallel from multiple goroutines — the Sweep shape — to give the race
// detector interleavings beyond a single pipeline.
func TestProfileOrgsJobsConcurrentLogs(t *testing.T) {
	specs := []OrgSpec{{Sets: 1, FIFOWays: []int64{8}}, {Sets: 8, FIFOWays: []int64{2}}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			l := randomShardLog(t, rng, 4000, seed%2 == 0)
			want, err := ProfileOrgsJobs(l, specs, 1, 1)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := ProfileOrgsJobs(l, specs, 4, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("sharded curves differ under concurrent profiling")
			}
		}(int64(g))
	}
	wg.Wait()
}
