package trace

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamsched/internal/obs"
)

// Replay fan-out: one in-order decode of the log feeds many consumers.
// The driver follows from the consumer count. One consumer replays inline
// on the caller's goroutine through ForEachWindowed, with no channels.
// Several consumers each run on their own goroutine, fed by one decoder
// goroutine that streams the log once through ForEach and broadcasts
// refcounted fanBatches in recorded order, so every consumer observes the
// exact global order — window resets included — and spilled traces are
// still read exactly once (Replays() counts one per pass).
//
// Resident memory stays flat regardless of trace length: ForEach holds one
// chunk at a time, and downstream at most consumers*(fanQueueDepth+1)
// batches are buffered, all recycled through a pool.
//
// Parallelism comes from consumers that each own part of the work (the
// hierarchy profilers' workers feed only the units they own). Window
// semantics are Log.ForEachWindowed's, replicated per consumer:
// ResetCounts fires exactly when the measured window begins, or once at
// the end when the window mark sits at or past the last access.

const (
	// fanBatchSize is the number of decoded accesses per broadcast batch:
	// large enough to amortise channel operations, small enough (32KB of
	// block ids) to stay cache-resident while a worker scans it.
	fanBatchSize = 4096
	// fanQueueDepth is the per-consumer channel buffer, in batches. It
	// bounds how far the decoder may run ahead of the slowest consumer.
	fanQueueDepth = 4
)

// A WindowedConsumer consumes one windowed replay of a trace on a single
// goroutine: Touch receives every access in recorded order, and
// ResetCounts is invoked exactly once, when the measured window begins
// (warm-then-reset-counts, like Log.ForEachWindowed). OrgProfiler and the
// hierarchy profilers' workers implement it.
type WindowedConsumer interface {
	ResetCounts()
	Touch(blk int64)
}

// A ProcWindowedConsumer is the multiprocessor form: TouchProc receives
// every access in recorded global order, tagged with the recording
// processor.
type ProcWindowedConsumer interface {
	ResetCounts()
	TouchProc(proc int, blk int64)
}

// fanBatch is one broadcast unit: a run of consecutive decoded accesses
// starting at global index start, shared read-only by every consumer and
// recycled once the last one releases it.
type fanBatch struct {
	start int64
	blks  []int64
	procs []int32 // recording processor per access; empty for plain logs
	refs  atomic.Int32
}

var fanBatchPool = sync.Pool{New: func() any {
	return &fanBatch{blks: make([]int64, 0, fanBatchSize)}
}}

func getFanBatch() *fanBatch {
	b := fanBatchPool.Get().(*fanBatch)
	b.blks = b.blks[:0]
	b.procs = b.procs[:0]
	return b
}

// FanOut replays the log exactly once and streams every recorded access,
// in order, to each consumer, honouring the measured window per consumer.
// One consumer runs inline on the calling goroutine; several run
// concurrently, one goroutine each. FanOut returns after every consumer
// has processed the full stream, so the caller may read consumer state
// without further synchronisation. An empty consumer list replays nothing
// and returns nil.
func (l *Log) FanOut(consumers []WindowedConsumer) error {
	switch len(consumers) {
	case 0:
		return nil
	case 1:
		l.publishWorkers(1)
		return l.ForEachWindowed(consumers[0].ResetCounts, consumers[0].Touch)
	}
	return l.fanOut(nil, len(consumers), func(w int, b *fanBatch, window int64, resetDone *bool) {
		c := consumers[w]
		if !*resetDone && b.start+int64(len(b.blks)) > window {
			for k, blk := range b.blks {
				if !*resetDone && b.start+int64(k) >= window {
					c.ResetCounts()
					*resetDone = true
				}
				c.Touch(blk)
			}
			return
		}
		for _, blk := range b.blks {
			c.Touch(blk)
		}
	}, func(w int) { consumers[w].ResetCounts() })
}

// FanOut replays the multiprocessor trace exactly once and streams every
// access, tagged with its recording processor, to each consumer.
// Semantics are Log.FanOut's.
func (pl *ProcLog) FanOut(consumers []ProcWindowedConsumer) error {
	switch len(consumers) {
	case 0:
		return nil
	case 1:
		pl.log.publishWorkers(1)
		return pl.ForEachWindowed(consumers[0].ResetCounts, consumers[0].TouchProc)
	}
	return pl.log.fanOut(pl, len(consumers), func(w int, b *fanBatch, window int64, resetDone *bool) {
		c := consumers[w]
		if !*resetDone && b.start+int64(len(b.blks)) > window {
			for k, blk := range b.blks {
				if !*resetDone && b.start+int64(k) >= window {
					c.ResetCounts()
					*resetDone = true
				}
				c.TouchProc(int(b.procs[k]), blk)
			}
			return
		}
		for k, blk := range b.blks {
			c.TouchProc(int(b.procs[k]), blk)
		}
	}, func(w int) { consumers[w].ResetCounts() })
}

// publishWorkers records the pass's consumer count in the
// profile.shard.workers gauge. profile.pipeline.decode.workers is always
// 1 — decoding is one in-order pass — and stays published for readers
// of the metric contract.
func (l *Log) publishWorkers(n int) {
	if reg := l.metrics().reg; reg != nil {
		reg.Gauge("profile.shard.workers").Max(int64(n))
		reg.Gauge("profile.pipeline.decode.workers").Max(1)
	}
}

// fanMetrics is the pipeline's per-pass instrumentation bundle; zero
// value = disabled registry (nil handles discard everything).
type fanMetrics struct {
	batchesC *obs.Counter
	depthG   *obs.Gauge
	decodeH  *obs.Histogram // per-batch fill latency
	routeH   *obs.Histogram // per-batch broadcast latency
}

// fanOut is the multi-consumer engine behind Log.FanOut and
// ProcLog.FanOut. n worker goroutines drain their channels through
// consume, then finalReset handles the empty-window case. pl non-nil
// layers the run-length processor tags into the batches.
//
// Every pipeline goroutine carries pprof labels so -cpuprofile output
// attributes samples to stages: the decoder runs as stage=decode and
// flips to stage=route per broadcast, and consumers run as stage=profile
// with their worker index. When the log's registry is live the pass also
// publishes the profile.pipeline.* metrics (see PERFORMANCE.md for the
// name contract).
func (l *Log) fanOut(pl *ProcLog, n int,
	consume func(w int, b *fanBatch, window int64, resetDone *bool),
	finalReset func(w int)) error {

	window := l.window
	met := l.metrics()
	var fm fanMetrics
	busy := make([]*obs.Timer, n)
	l.publishWorkers(n)
	if met.reg != nil {
		fm.batchesC = met.reg.Counter("profile.pipeline.batches")
		fm.depthG = met.reg.Gauge("profile.pipeline.queue.depth")
		fm.decodeH = met.reg.Histogram("profile.pipeline.batch.decode")
		fm.routeH = met.reg.Histogram("profile.pipeline.batch.route")
		for w := range busy {
			busy[w] = met.reg.Timer(fmt.Sprintf("profile.shard.%d.busy", w))
		}
	}

	chans := make([]chan *fanBatch, n)
	for w := range chans {
		chans[w] = make(chan *fanBatch, fanQueueDepth)
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("stage", "profile", "worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				resetDone := false
				for b := range chans[w] {
					var t0 time.Time
					if busy[w] != nil {
						t0 = time.Now()
					}
					consume(w, b, window, &resetDone)
					if busy[w] != nil {
						busy[w].Observe(time.Since(t0))
					}
					if b.refs.Add(-1) == 0 {
						fanBatchPool.Put(b)
					}
				}
				if !resetDone {
					finalReset(w)
				}
			})
		}(w)
	}

	err := l.fanDecode(pl, chans, fm)
	wg.Wait()
	return err
}

// broadcast routes one filled batch to every consumer channel, timing the
// fan-out when the route histogram is live.
func broadcast(b *fanBatch, chans []chan *fanBatch, fm fanMetrics) {
	b.refs.Store(int32(len(chans)))
	fm.batchesC.Add(1)
	var t0 time.Time
	if fm.routeH != nil {
		t0 = time.Now()
	}
	for _, ch := range chans {
		fm.depthG.Max(int64(len(ch)) + 1)
		ch <- b
	}
	if fm.routeH != nil {
		fm.routeH.Observe(time.Since(t0))
	}
}

// fanDecode runs the decoder goroutine: it decodes the whole trace in
// order (one ForEach — one replay, spilled chunks streamed off disk once),
// broadcasts fanBatchSize batches, closes every channel, and returns the
// replay's error.
func (l *Log) fanDecode(pl *ProcLog, chans []chan *fanBatch, fm fanMetrics) error {
	decodeCtx := pprof.WithLabels(context.Background(), pprof.Labels("stage", "decode"))
	routeCtx := pprof.WithLabels(context.Background(), pprof.Labels("stage", "route"))
	errC := make(chan error, 1)
	go func() {
		pprof.SetGoroutineLabels(decodeCtx)
		var cur *fanBatch
		var batchStart time.Time
		next := int64(0)
		flush := func() {
			if cur == nil {
				return
			}
			if len(cur.blks) == 0 {
				fanBatchPool.Put(cur)
				cur = nil
				return
			}
			if fm.decodeH != nil {
				fm.decodeH.Observe(time.Since(batchStart))
			}
			pprof.SetGoroutineLabels(routeCtx)
			broadcast(cur, chans, fm)
			pprof.SetGoroutineLabels(decodeCtx)
			cur = nil
		}
		emit := func(proc int32, blk int64) {
			if cur == nil {
				cur = getFanBatch()
				cur.start = next
				if fm.decodeH != nil {
					batchStart = time.Now()
				}
			}
			cur.blks = append(cur.blks, blk)
			if pl != nil {
				cur.procs = append(cur.procs, proc)
			}
			next++
			if len(cur.blks) >= fanBatchSize {
				flush()
			}
		}

		var err error
		if pl != nil {
			err = pl.ForEach(func(proc int, blk int64) { emit(int32(proc), blk) })
		} else {
			err = l.ForEach(func(blk int64) { emit(0, blk) })
		}
		if err == nil {
			flush()
		} else if cur != nil {
			fanBatchPool.Put(cur)
			cur = nil
		}
		for _, ch := range chans {
			close(ch)
		}
		errC <- err
	}()
	return <-errC
}

// ProfileWorkers resolves a jobs knob to a worker count: <= 0 means one
// worker per available CPU (GOMAXPROCS), larger values are taken as
// given. Shared by the hierarchy ProfileJobs entry points and
// schedule.Env.
func ProfileWorkers(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}
