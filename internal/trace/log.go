package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"streamsched/internal/obs"
)

// logChunkSize is the target size of one encoded chunk. Chunks are sealed
// when they reach this size; sealed chunks are what spilling moves to disk.
const logChunkSize = 64 << 10

// Log is a compact append-only trace of block accesses. Successive block
// ids are zigzag-delta encoded as varints (streaming access patterns are
// dominated by small strides, so most accesses cost one or two bytes) and
// accumulated in fixed-size chunks. When a spill threshold is set and the
// in-memory encoding exceeds it, sealed chunks are appended to an unlinked
// temporary file so arbitrarily long traces hold only O(1) memory.
//
// Every sealed chunk carries a small in-memory chunkMeta recording its
// delta base (the block id preceding the chunk's first access), its global
// access index, its access count, and — once spilled — its byte offset in
// the spill file. A chunk therefore decodes standalone, which lets ForEach
// read the spill file at chunk granularity via ReadAt instead of the
// seek-restore dance, and lets a decode failure name its chunk.
//
// A Log records a single logical run. MarkWindow splits it into a warmup
// prefix and a measured window, mirroring schedule.Measure's
// warm-then-reset-stats protocol: profiling replays the whole trace (the
// warmup populates the LRU stack) but only window accesses are counted.
//
// The zero value is ready to use and never spills. Log is not safe for
// concurrent use.
type Log struct {
	chunks   [][]byte    // sealed, still-in-memory chunks, in order
	metas    []chunkMeta // one per sealed chunk ever (spilled metas first)
	onDisk   int         // metas[:onDisk] have their bytes in the spill file
	cur      []byte      // open chunk being appended to
	curBase  int64       // delta base of cur's first access
	curStart int64       // global access index of cur's first access
	prev     int64       // previous block id (delta base)
	n        int64       // total recorded accesses
	window   int64       // index of the first measured access (0: whole trace)

	spillAt  int64 // seal-bytes threshold that triggers spilling; 0: never
	memBytes int64 // bytes held in sealed in-memory chunks
	spill    *os.File
	spillW   *bufio.Writer
	spilled  int64 // bytes currently in the spill file (reset by Close)
	dropped  bool  // Close released spilled data; the log is unreadable
	err      error // first spill I/O error, reported by ForEach/Close
	replays  int64 // completed end-to-end decodes (ForEach calls)

	sealed    int64 // chunks ever sealed
	everSpill int64 // bytes ever written to the spill file (survives Close)
	met       *logMetrics
	scratch   [binary.MaxVarintLen64]byte
}

// logMetrics caches the log's registry handles so the record path touches
// the registry maps once, not per access. A shared zero-value instance is
// the disabled path: its nil counters discard everything.
type logMetrics struct {
	reg      *obs.Registry
	accesses *obs.Counter
	sealedC  *obs.Counter
	spillB   *obs.Counter
	replays  *obs.Counter
	decode   *obs.Timer
}

// chunkMeta makes one sealed chunk standalone-decodable: the chunk's
// varint deltas accumulate onto base, its first access sits at global
// index start, and it decodes to exactly n accesses. off is the chunk's
// byte offset in the spill file, -1 while its bytes are still in memory.
// Metas are tiny (one per 64KB of encoded trace) and never spill.
type chunkMeta struct {
	base  int64
	start int64
	n     int64
	bytes int64
	off   int64
}

var nopLogMetrics logMetrics

func newLogMetrics(reg *obs.Registry) *logMetrics {
	if reg == nil {
		return &nopLogMetrics
	}
	return &logMetrics{
		reg:      reg,
		accesses: reg.Counter("trace.accesses"),
		sealedC:  reg.Counter("trace.chunks.sealed"),
		spillB:   reg.Counter("trace.spill.bytes"),
		replays:  reg.Counter("trace.replays"),
		decode:   reg.Timer("trace.replay"),
	}
}

// metrics resolves the log's registry handles, capturing the process
// default lazily on first use when SetMetrics was never called.
func (l *Log) metrics() *logMetrics {
	if l.met == nil {
		l.met = newLogMetrics(obs.Default())
	}
	return l.met
}

// SetMetrics routes the log's instrumentation (trace.accesses,
// trace.chunks.sealed, trace.spill.bytes, trace.replays, and the
// trace.replay timer — full replay wall-clock, consumer callbacks
// included) into reg instead of the process default; nil disables it.
// Call before recording starts — without it the default registry is
// captured at the first recorded access.
func (l *Log) SetMetrics(reg *obs.Registry) { l.met = newLogMetrics(reg) }

// Metrics returns the registry the log publishes to, nil when disabled.
// Profiling passes that only receive the log (ProfileOrgsJobs,
// hierarchy.ProfileHierJobs)
// publish their own metrics here so one run's counters land in one place.
func (l *Log) Metrics() *obs.Registry { return l.metrics().reg }

// LogStats is a recording's accounting summary — what the spill
// regression tests assert on instead of poking individual getters.
type LogStats struct {
	Accesses     int64 // block accesses recorded
	Chunks       int64 // chunks sealed (in-memory or spilled)
	SpilledBytes int64 // bytes ever written to the spill file
	Replays      int64 // completed end-to-end decodes
}

// Stats returns the log's accounting summary. SpilledBytes is cumulative
// over the log's lifetime: it survives Close, unlike Spilled().
func (l *Log) Stats() LogStats {
	return LogStats{
		Accesses:     l.n,
		Chunks:       l.sealed,
		SpilledBytes: l.everSpill,
		Replays:      l.replays,
	}
}

// NewLog returns an empty in-memory trace log.
func NewLog() *Log { return &Log{} }

// SetSpillThreshold makes the log spill sealed chunks to a temporary file
// once more than limit bytes of encoded trace are held in memory. A limit
// of 0 disables spilling. Must be called before recording starts.
func (l *Log) SetSpillThreshold(limit int64) {
	l.spillAt = limit
}

// RecordBlock implements Recorder: it appends one block access.
func (l *Log) RecordBlock(blk int64) {
	if l.cur == nil {
		l.cur = make([]byte, 0, logChunkSize)
		l.curBase = l.prev
		l.curStart = l.n
	}
	delta := blk - l.prev
	l.prev = blk
	m := binary.PutVarint(l.scratch[:], delta)
	l.cur = append(l.cur, l.scratch[:m]...)
	l.n++
	l.metrics().accesses.Add(1)
	if len(l.cur) >= logChunkSize {
		l.seal()
	}
}

// seal closes the open chunk, recording its standalone-decode metadata,
// and spills if over the threshold.
func (l *Log) seal() {
	if len(l.cur) == 0 {
		return
	}
	if l.err != nil {
		// Spilling already failed: the trace is unusable (ForEach reports
		// the latched error), so drop data rather than grow without bound
		// for the remainder of a long recording.
		l.cur = l.cur[:0]
		return
	}
	l.chunks = append(l.chunks, l.cur)
	l.metas = append(l.metas, chunkMeta{
		base:  l.curBase,
		start: l.curStart,
		n:     l.n - l.curStart,
		bytes: int64(len(l.cur)),
		off:   -1,
	})
	l.memBytes += int64(len(l.cur))
	l.cur = nil
	l.sealed++
	l.metrics().sealedC.Add(1)
	if l.spillAt > 0 && l.memBytes > l.spillAt {
		l.spillChunks()
	}
}

// spillChunks appends every sealed in-memory chunk to the spill file.
func (l *Log) spillChunks() {
	if l.err != nil {
		return
	}
	if l.spill == nil {
		f, err := os.CreateTemp("", "streamsched-trace-*")
		if err != nil {
			l.err = fmt.Errorf("trace: create spill file: %w", err)
			return
		}
		// Unlink immediately; the file lives until Close drops the handle.
		os.Remove(f.Name())
		l.spill = f
		l.spillW = bufio.NewWriterSize(f, 1<<20)
	}
	moved := int64(0)
	for _, c := range l.chunks {
		if _, err := l.spillW.Write(c); err != nil {
			l.err = fmt.Errorf("trace: spill write: %w", err)
			return
		}
		l.metas[l.onDisk].off = l.spilled
		l.onDisk++
		l.spilled += int64(len(c))
		moved += int64(len(c))
	}
	l.everSpill += moved
	l.metrics().spillB.Add(moved)
	l.chunks = l.chunks[:0]
	l.memBytes = 0
}

// MarkWindow marks the current position as the start of the measured
// window: accesses recorded before this call warm the stack but are not
// counted by Profile.
func (l *Log) MarkWindow() { l.window = l.n }

// Len returns the number of recorded accesses.
func (l *Log) Len() int64 { return l.n }

// WindowStart returns the index of the first measured access.
func (l *Log) WindowStart() int64 { return l.window }

// EncodedBytes returns the total encoded size of the trace so far.
func (l *Log) EncodedBytes() int64 {
	return l.spilled + l.memBytes + int64(len(l.cur))
}

// Spilled reports whether any part of the trace lives on disk.
func (l *Log) Spilled() bool { return l.spilled > 0 }

// Err returns the first spill I/O error, if any. Once an error is latched
// the log stops retaining new accesses and ForEach refuses to replay;
// long-running recorders can poll Err to abort early.
func (l *Log) Err() error { return l.err }

// Replays returns how many times the trace has been decoded end to end —
// the replay I/O a profiling path paid. Single-pass regression tests
// assert on it: on a spilled trace every replay is a full re-read of the
// spill file.
func (l *Log) Replays() int64 { return l.replays }

// ForEach replays every recorded access in order. It may be called
// repeatedly; the log remains appendable afterwards. Decoding is
// chunk-at-a-time through the batched varint fast path, with spilled
// chunks read back at chunk granularity via ReadAt (the spill writer's
// offset is never disturbed).
func (l *Log) ForEach(fn func(blk int64)) error {
	if l.err != nil {
		return l.err
	}
	if l.dropped {
		return fmt.Errorf("trace: log closed after spilling; spilled data released")
	}
	met := l.metrics()
	var began time.Time
	if met.reg != nil {
		began = time.Now()
	}
	if err := l.flushSpill(); err != nil {
		return err
	}
	slabp := getDecodeSlab()
	defer putDecodeSlab(slabp)
	var readBuf []byte
	for i, nc := 0, l.numChunks(); i < nc; i++ {
		buf, err := l.chunkBytes(i, &readBuf)
		if err != nil {
			return l.latchChunk(err)
		}
		blks, err := decodeChunkBlocks((*slabp)[:0], buf, l.chunkAt(i), i)
		if err != nil {
			return l.latchChunk(err)
		}
		for _, b := range blks {
			fn(b)
		}
	}
	l.replays++
	met.replays.Add(1)
	if met.reg != nil {
		met.decode.Observe(time.Since(began))
	}
	return nil
}

// flushSpill pushes buffered spill writes to the file so chunk reads see
// every sealed byte. A flush failure is latched: the spill file's
// contents can no longer be trusted.
func (l *Log) flushSpill() error {
	if l.spill == nil {
		return nil
	}
	if err := l.spillW.Flush(); err != nil {
		l.err = fmt.Errorf("trace: spill flush: %w", err)
		return l.err
	}
	return nil
}

// numChunks returns how many standalone-decodable chunks the log holds:
// every sealed chunk plus the open tail when non-empty.
func (l *Log) numChunks() int {
	if len(l.cur) > 0 {
		return len(l.metas) + 1
	}
	return len(l.metas)
}

// chunkAt returns chunk i's standalone-decode metadata; i == len(l.metas)
// addresses the open tail chunk.
func (l *Log) chunkAt(i int) chunkMeta {
	if i < len(l.metas) {
		return l.metas[i]
	}
	return chunkMeta{
		base:  l.curBase,
		start: l.curStart,
		n:     l.n - l.curStart,
		bytes: int64(len(l.cur)),
		off:   -1,
	}
}

// chunkBytes returns chunk i's encoded bytes. Spilled chunks are read
// into *readBuf (grown on demand, reused across calls) with ReadAt, which
// leaves the spill writer's offset alone. The caller must have flushed
// the spill writer first.
func (l *Log) chunkBytes(i int, readBuf *[]byte) ([]byte, error) {
	if i >= len(l.metas) {
		return l.cur, nil
	}
	m := l.metas[i]
	if m.off < 0 {
		return l.chunks[i-l.onDisk], nil
	}
	if int64(cap(*readBuf)) < m.bytes {
		*readBuf = make([]byte, m.bytes)
	}
	buf := (*readBuf)[:m.bytes]
	if _, err := l.spill.ReadAt(buf, m.off); err != nil {
		return nil, &chunkError{chunk: i, off: 0, spilled: true, msg: "spill read failed", cause: err}
	}
	return buf, nil
}

// latchChunk poisons the log when a chunk failure implicates the spill
// file (its contents can no longer be trusted, so later replays must
// refuse); corruption of a still-in-memory chunk leaves the log state
// alone.
func (l *Log) latchChunk(err error) error {
	var ce *chunkError
	if errors.As(err, &ce) && ce.spilled {
		l.err = err
	}
	return err
}

// ForEachWindowed replays every recorded access in order like ForEach,
// additionally invoking reset exactly when the measured window begins —
// after the warmup prefix has been replayed, or once at the end when the
// window mark sits at or past the last access (an empty window measures
// nothing). Every windowed consumer (the profilers, the hierarchy
// simulator) shares this so the warm-then-reset-counts protocol lives in
// one place.
func (l *Log) ForEachWindowed(reset func(), touch func(blk int64)) error {
	start := l.window
	var i int64
	err := l.ForEach(func(blk int64) {
		if i == start {
			reset()
		}
		i++
		touch(blk)
	})
	if err != nil {
		return err
	}
	if start >= i {
		reset()
	}
	return nil
}

// Close releases the spill file, if any. A log that never spilled stays
// readable; one that did cannot be replayed afterwards (the in-memory tail
// is delta-encoded against the released prefix), so ForEach reports an
// error instead of returning wrong data.
func (l *Log) Close() error {
	if l.spill == nil {
		return l.err
	}
	err := l.spill.Close()
	l.spill, l.spillW = nil, nil
	if l.spilled > 0 {
		l.dropped = true
	}
	l.spilled = 0
	if l.err == nil && err != nil {
		l.err = err
	}
	return l.err
}

// chunkError is a chunk-granular read or decode failure. It names the
// chunk index and the byte offset within the chunk (0 for whole-chunk
// read failures), so a corruption report pinpoints the damage instead of
// the old anonymous "corrupt varint in chunk". spilled failures poison
// the log — see Log.latchChunk.
type chunkError struct {
	chunk   int
	off     int64
	spilled bool
	msg     string
	cause   error
}

func (e *chunkError) Error() string {
	if e.cause != nil {
		return fmt.Sprintf("trace: %s in chunk %d at byte offset %d: %v", e.msg, e.chunk, e.off, e.cause)
	}
	return fmt.Sprintf("trace: %s in chunk %d at byte offset %d", e.msg, e.chunk, e.off)
}

func (e *chunkError) Unwrap() error { return e.cause }

// errCorruptVarint is appendVarintDeltas' sentinel; the chunk-level
// wrappers turn it into a *chunkError carrying chunk index and offset.
var errCorruptVarint = errors.New("corrupt varint")

// decodeSlabPool recycles ForEach's whole-chunk decode buffers: one
// chunk's accesses fit because every encoded access is at least one byte
// and a chunk never grows past logChunkSize plus one varint.
var decodeSlabPool = sync.Pool{New: func() any {
	s := make([]int64, 0, logChunkSize+binary.MaxVarintLen64)
	return &s
}}

func getDecodeSlab() *[]int64  { return decodeSlabPool.Get().(*[]int64) }
func putDecodeSlab(s *[]int64) { decodeSlabPool.Put(s) }

// appendVarintDeltas is the batched varint fast path: it decodes
// zigzag-varint deltas from buf, accumulating them onto prev and
// appending the absolute block ids to dst, in one tight loop with no
// per-access interface calls — a single-byte fast path (the common case:
// streaming strides encode in one byte) and an inline continuation loop
// otherwise. It stops when buf is exhausted or dst reaches capacity and
// returns the extended dst, the unconsumed bytes, and the running block
// id. On corruption rest points at the offending varint's first byte and
// err is errCorruptVarint.
func appendVarintDeltas(dst []int64, buf []byte, prev int64) (out []int64, rest []byte, last int64, err error) {
	for len(buf) > 0 && len(dst) < cap(dst) {
		ux := uint64(buf[0])
		if ux < 0x80 {
			buf = buf[1:]
		} else {
			ux &= 0x7f
			s := uint(7)
			i := 1
			for {
				if i >= len(buf) || s > 63 {
					return dst, buf, prev, errCorruptVarint
				}
				b := buf[i]
				i++
				if b < 0x80 {
					if s == 63 && b > 1 {
						// A 10th byte carries only bit 63: anything
						// larger overflows, as binary.Varint reports.
						return dst, buf, prev, errCorruptVarint
					}
					ux |= uint64(b) << s
					break
				}
				ux |= uint64(b&0x7f) << s
				s += 7
			}
			buf = buf[i:]
		}
		delta := int64(ux >> 1)
		if ux&1 != 0 {
			delta = ^delta
		}
		prev += delta
		dst = append(dst, prev)
	}
	return dst, buf, prev, nil
}

// decodeChunkBlocks decodes one whole chunk into dst via the batched fast
// path and cross-checks the decoded access count against the chunk's
// sealed metadata, so truncated or padded chunks surface as corruption
// instead of silently skewing every consumer's global indices.
func decodeChunkBlocks(dst []int64, buf []byte, meta chunkMeta, idx int) ([]int64, error) {
	if int64(cap(dst)) < meta.n {
		dst = make([]int64, 0, meta.n)
	}
	out, rest, _, err := appendVarintDeltas(dst[:0:meta.n], buf, meta.base)
	if err != nil {
		return nil, &chunkError{chunk: idx, off: int64(len(buf) - len(rest)), spilled: meta.off >= 0, msg: "corrupt varint"}
	}
	if len(rest) > 0 || int64(len(out)) != meta.n {
		return nil, &chunkError{
			chunk: idx, off: int64(len(buf) - len(rest)), spilled: meta.off >= 0,
			msg: fmt.Sprintf("access count mismatch (decoded %d of sealed %d, %d bytes undecoded)", len(out), meta.n, len(rest)),
		}
	}
	return out, nil
}
