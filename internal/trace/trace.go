// Package trace is the one-pass miss-curve engine: it captures block-access
// traces from the execution machine and computes, in a single pass, the
// exact fully-associative LRU miss count for every cache capacity at once.
//
// The paper's central experiments sweep the cache size M and plot misses
// per item for each scheduler. Simulating each (scheduler, M) point
// separately costs one full run per point; Mattson's stack algorithm
// (reuse-distance profiling) replaces the whole sweep with one recorded
// trace and one O(n log n) profiling pass, because an access to a block at
// LRU stack depth d hits in every cache of at least d lines and misses in
// every smaller one. The resulting MissCurve answers "how many misses at
// capacity M?" for all M simultaneously and exactly matches the cachesim
// LRU simulator (see the cross-validation tests).
//
// The pieces:
//
//   - Recorder is the event sink the execution machine emits block
//     accesses into. Log records them, a compact delta-varint
//     append-only encoding that can spill to disk; the profilers are
//     Recorders too, so a run can be profiled while it records.
//   - Profiler implements Mattson's algorithm over last-access slots
//     kept in a word-packed order-statistics timeline (an occupancy
//     bitset with a Fenwick tree over 64-slot word popcounts): O(log n)
//     per access, memory proportional to the number of distinct blocks.
//   - MissCurve is the profile result: misses as a function of capacity.
//   - AssocProfiler shards the trace by set index and runs one Mattson
//     stack per set: exact set-associative LRU misses for every way count
//     of a set count, still in one pass (AssocCurve).
//   - FIFOProfiler multiplexes per-set FIFO replicas over the same pass:
//     exact FIFO misses at each requested way count (FIFOCurve).
//   - ProcLog is the multiprocessor trace: per-processor access streams
//     plus the global interleaving order a parallel run emitted them in,
//     run-length encoded over one spillable Log — the input of the
//     shared-L2 hierarchy paths.
//   - Sweep runs a pool of profiling jobs (schedulers x workloads) on a
//     bounded number of goroutines.
//   - OrgProfiler drives any number of organisations' profilers from one
//     pass over the stream, so one run per scheduler answers every
//     (capacity, ways, policy) robustness question: online as the run's
//     Recorder, or through ProfileOrgsJobs, which replays a recorded log
//     into one OrgProfiler inline on the calling goroutine.
//   - FanOut streams one in-order decode of the log to any number of
//     consumers — inline for one, through refcounted batches and
//     per-consumer bounded channels for several. The hierarchy
//     profilers shard across it; ProfileWorkers resolves their worker
//     counts (0 means one worker per CPU, n uses n workers).
//
// Three invariants hold on every path through this package, and tests pin
// each:
//
//   - Exactness: every curve equals what the cachesim simulator reports at
//     the corresponding configuration — profiling is a faster evaluation
//     order, never an approximation. Sharded hierarchy results are
//     byte-identical at any worker count (each worker owns whole units
//     and sees the full stream; nothing is merged numerically).
//   - One pass: a profiling call that replays a log pays exactly one
//     decode, however many organisations (or consumers) it drives;
//     Replays() is the observable counter. Spilled logs stream chunk by chunk from disk, so
//     resident memory is flat in the trace length.
//   - Deterministic windows: ForEachWindowed and FanOut reset per-window
//     counters at exactly the recorded MarkWindow position; first-ever
//     (cold) tracking deliberately survives the reset, on every consumer.
package trace

// Recorder receives one event per block-level cache access, in execution
// order. The execution machine (internal/exec) forwards every block touch
// of a run into a Recorder; implementations must be cheap because they sit
// on the simulator's innermost loop.
type Recorder interface {
	// RecordBlock notes one access to the given block id.
	RecordBlock(blk int64)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(blk int64)

// RecordBlock implements Recorder.
func (f RecorderFunc) RecordBlock(blk int64) { f(blk) }
