package hierarchy

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// profileJobsList is the worker counts the hierarchy equivalence suites
// compare against one worker: the smallest genuinely-sharded pool, an
// odd count, NumCPU, and counts past every test grid's unit cap.
func profileJobsList() []int {
	return []int{2, 3, runtime.NumCPU(), 0, 1024}
}

// TestProfileHierJobsMatchesSequential is the hierarchy profiler's core
// sharding property: byte-identical HierCurves against the one-worker
// pass across the mixed-policy test grid, worker counts, and spilled vs
// in-memory traces, with the trace still decoded once per pass.
func TestProfileHierJobsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	spec := testSpec()
	for trial := 0; trial < 3; trial++ {
		for _, spill := range []bool{false, true} {
			n := 4000
			if spill {
				n = 80000 // enough encoded bytes to seal and spill chunks
			}
			blocks := stream(rng, n, 300)
			l := trace.NewLog()
			if spill {
				l.SetSpillThreshold(1)
			}
			for i, blk := range blocks {
				if i == n/4 {
					l.MarkWindow()
				}
				l.RecordBlock(blk)
			}
			if spill && !l.Spilled() {
				t.Fatal("spill variant did not spill")
			}
			want, err := ProfileHierJobs(l, spec, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, jobs := range profileJobsList() {
				before := l.Replays()
				got, err := ProfileHierJobs(l, spec, jobs, 1)
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				if l.Replays() != before+1 {
					t.Fatalf("jobs=%d: %d replays for one pass", jobs, l.Replays()-before)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d spill=%v jobs=%d: sharded hier curves differ from one worker", trial, spill, jobs)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestProfileHierJobsEmptyWindow pins the empty-window corner (reset at
// end of stream) on the sharded path.
func TestProfileHierJobsEmptyWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	blocks := stream(rng, 2000, 100)
	l := recordLog(blocks, 2000) // window at Len: nothing measured
	spec := testSpec()
	want, err := ProfileHierJobs(l, spec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProfileHierJobs(l, spec, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded hier curves differ on empty window")
	}
}

// TestProfileSharedJobsMatchesSequential: byte-identical SharedCurves —
// per-processor L1 misses, aggregate L2 misses, access tallies — against
// the one-worker pass across processor counts, worker counts, and
// spilled traces.
func TestProfileSharedJobsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, procs := range []int{1, 2, 4} {
		for _, spill := range []int64{0, 1} {
			n := 5000
			if spill > 0 {
				n = 90000
			}
			pl := procTrace(t, rng, procs, n, 96, spill)
			if spill > 0 && !pl.Spilled() {
				t.Fatal("spill variant did not spill")
			}
			spec := SharedSpec{
				Block: 16,
				Procs: procs,
				L1s: []Level{
					lv(8*16, 16, 1, cachesim.LRU),
					lv(8*16, 16, 0, cachesim.LRU),
					lv(16*16, 16, 2, cachesim.FIFO),
				},
				L2s: []Level{
					lv(64*16, 16, 0, cachesim.LRU),
					lv(128*64, 64, 4, cachesim.LRU),
					lv(64*64, 64, 2, cachesim.FIFO),
				},
			}
			want, err := ProfileSharedJobs(pl, spec, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, jobs := range profileJobsList() {
				before := pl.Replays()
				got, err := ProfileSharedJobs(pl, spec, jobs, 1)
				if err != nil {
					t.Fatalf("procs=%d jobs=%d: %v", procs, jobs, err)
				}
				if pl.Replays() != before+1 {
					t.Fatalf("jobs=%d: %d replays for one pass", jobs, pl.Replays()-before)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("procs=%d spill=%d jobs=%d: sharded shared curves differ from one worker", procs, spill, jobs)
				}
			}
			if err := pl.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
