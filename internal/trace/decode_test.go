package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestChunkStandaloneRoundTrip is the delta-reset invariant chunk-granular
// reads and chunk-indexed errors depend on: every sealed chunk (and the
// open tail) must decode
// standalone from its recorded base and global start index to exactly the
// slice of the full stream it covers — randomised logs, spilled and
// in-memory.
func TestChunkStandaloneRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		spill := trial%2 == 1
		l := randomShardLog(t, rng, 2000+rng.Intn(4000), spill)

		var full []int64
		if err := l.ForEach(func(blk int64) { full = append(full, blk) }); err != nil {
			t.Fatal(err)
		}
		if int64(len(full)) != l.Len() {
			t.Fatalf("full decode yielded %d accesses, recorded %d", len(full), l.Len())
		}

		nc := l.numChunks()
		if spill && nc < 2 {
			t.Fatalf("spill trial sealed only %d chunks; grow the trace", nc)
		}
		var covered int64
		// Walk the chunks in a scrambled order: standalone means no chunk
		// may depend on a predecessor having been decoded first.
		order := rng.Perm(nc)
		var readBuf []byte
		for _, i := range order {
			meta := l.chunkAt(i)
			buf, err := l.chunkBytes(i, &readBuf)
			if err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
			blks, err := decodeChunkBlocks(nil, buf, meta, i)
			if err != nil {
				t.Fatalf("chunk %d standalone decode: %v", i, err)
			}
			want := full[meta.start : meta.start+meta.n]
			if !reflect.DeepEqual(blks, want) {
				t.Fatalf("trial %d chunk %d (start %d, n %d): standalone decode differs from full replay", trial, i, meta.start, meta.n)
			}
			covered += meta.n
		}
		if covered != l.Len() {
			t.Fatalf("chunks cover %d accesses, recorded %d", covered, l.Len())
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptibleLog records large-delta accesses until at least chunks
// chunks exist, returning the log and the expected stream.
func corruptibleLog(t *testing.T, chunks int, spillAt int64) *Log {
	t.Helper()
	rng := rand.New(rand.NewSource(37))
	l := NewLog()
	if spillAt > 0 {
		l.SetSpillThreshold(spillAt)
	}
	for len(l.metas) < chunks || len(l.cur) == 0 {
		l.RecordBlock(rng.Int63() - rng.Int63()) // huge deltas: ~10 bytes each
	}
	return l
}

// TestCorruptChunkInMemory corrupts a sealed in-memory chunk and asserts
// the decode error names the chunk index and byte offset — the old
// decoder's anonymous "corrupt varint in chunk" left both out — and that
// in-memory corruption does not latch the log.
func TestCorruptChunkInMemory(t *testing.T) {
	l := corruptibleLog(t, 2, 0)
	if l.onDisk != 0 || len(l.chunks) < 2 {
		t.Fatalf("want >= 2 in-memory chunks, have %d (onDisk %d)", len(l.chunks), l.onDisk)
	}
	// A run of continuation bytes longer than any valid varint: the
	// decoder must flag the run's first byte.
	const at = 100
	copy(l.chunks[1][at:], bytes.Repeat([]byte{0xff}, 16))

	err := l.ForEach(func(int64) {})
	if err == nil {
		t.Fatal("corrupt chunk decoded without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "chunk 1") {
		t.Errorf("error %q does not name chunk 1", msg)
	}
	if !strings.Contains(msg, "byte offset") {
		t.Errorf("error %q does not name the byte offset", msg)
	}
	var ce *chunkError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a chunkError", err)
	}
	if ce.chunk != 1 || ce.off < at-10 || ce.off > at {
		t.Errorf("chunkError = chunk %d offset %d, want chunk 1 near offset %d", ce.chunk, ce.off, at)
	}
	if l.Err() != nil {
		t.Errorf("in-memory corruption latched the log: %v", l.Err())
	}
	// FanOut must surface the same failure inline (one consumer) and
	// through the decoder goroutine (several), draining cleanly.
	for _, n := range []int{1, 2} {
		cons := make([]WindowedConsumer, n)
		for i := range cons {
			cons[i] = &recordingConsumer{}
		}
		if err := l.FanOut(cons); err == nil {
			t.Errorf("FanOut with %d consumers decoded the corrupt chunk without error", n)
		} else if !strings.Contains(err.Error(), "chunk 1") {
			t.Errorf("FanOut with %d consumers: error %q does not name chunk 1", n, err)
		}
	}
}

// TestCorruptChunkSpilled is the streaming-reader regression test: a
// corrupt chunk in the spill file must be reported with chunk index and
// byte offset, and — unlike in-memory corruption — must latch the log, so
// later replays refuse rather than re-trusting a damaged file.
func TestCorruptChunkSpilled(t *testing.T) {
	l := corruptibleLog(t, 3, 1)
	if err := l.ForEach(func(int64) {}); err != nil { // flushes the spill writer
		t.Fatal(err)
	}
	if l.onDisk < 3 {
		t.Fatalf("want >= 3 spilled chunks, have %d", l.onDisk)
	}
	const at = 57
	if _, err := l.spill.WriteAt(bytes.Repeat([]byte{0xff}, 16), l.metas[2].off+at); err != nil {
		t.Fatal(err)
	}

	err := l.ForEach(func(int64) {})
	if err == nil {
		t.Fatal("corrupt spilled chunk decoded without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "chunk 2") {
		t.Errorf("error %q does not name chunk 2", msg)
	}
	if !strings.Contains(msg, "byte offset") {
		t.Errorf("error %q does not name the byte offset", msg)
	}
	if l.Err() == nil {
		t.Fatal("spilled corruption did not latch the log")
	}
	if err2 := l.ForEach(func(int64) {}); err2 == nil {
		t.Fatal("latched log replayed anyway")
	}
	if err := l.Close(); err == nil {
		t.Error("Close did not report the latched error")
	}
}

// TestVarintOverflowRejected is the 10-byte overflow regression: a final
// byte above 1 sets bits past 63, which binary.Varint rejects, so the
// batched decoder must too instead of wrapping to a wrong block id.
func TestVarintOverflowRejected(t *testing.T) {
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, n := binary.Varint(overflow); n >= 0 {
		t.Fatalf("binary.Varint accepted the overflow (n=%d); the case is vacuous", n)
	}
	for _, last := range []byte{0x02, 0x7f} {
		buf := append(append([]byte{}, overflow[:9]...), last)
		out, rest, _, err := appendVarintDeltas(make([]int64, 0, 4), buf, 0)
		if !errors.Is(err, errCorruptVarint) {
			t.Fatalf("last byte %#x: decoded %v with err %v, want errCorruptVarint", last, out, err)
		}
		if len(rest) != len(buf) {
			t.Errorf("last byte %#x: rest has %d bytes, want the varint's first byte (%d)", last, len(rest), len(buf))
		}
	}
	// A final byte of 1 is the largest legal 10-byte varint.
	max := []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	want, _ := binary.Varint(max)
	out, _, _, err := appendVarintDeltas(make([]int64, 0, 1), max, 0)
	if err != nil || len(out) != 1 || out[0] != want {
		t.Fatalf("legal 10-byte varint: got %v, %v; want [%d]", out, err, want)
	}
}

// FuzzAppendVarintDeltas is differential against encoding/binary: on input
// binary.Varint decodes end to end the batched decoder must produce the
// same running block ids; on input it rejects, the batched decoder must
// return errCorruptVarint (never panic) after decoding the same valid
// prefix.
func FuzzAppendVarintDeltas(f *testing.F) {
	f.Add([]byte{0x02}, int64(0))                                                             // 1 byte
	f.Add([]byte{0x81, 0x01, 0x03, 0x7f}, int64(5))                                           // mixed widths
	f.Add([]byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, int64(-1))      // 10 bytes
	f.Add([]byte{0x04, 0x80, 0x80}, int64(0))                                                 // truncated
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, int64(0))       // overflow
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, int64(0)) // 11 bytes
	f.Fuzz(func(t *testing.T, buf []byte, base int64) {
		var want []int64
		prev, rest := base, buf
		valid := true
		for len(rest) > 0 {
			delta, n := binary.Varint(rest)
			if n <= 0 {
				valid = false
				break
			}
			prev += delta
			want = append(want, prev)
			rest = rest[n:]
		}
		got, gotRest, _, err := appendVarintDeltas(make([]int64, 0, len(buf)), buf, base)
		if valid {
			if err != nil || len(gotRest) != 0 {
				t.Fatalf("valid input %x: err %v, %d bytes left", buf, err, len(gotRest))
			}
		} else {
			if !errors.Is(err, errCorruptVarint) {
				t.Fatalf("input %x rejected by binary.Varint: err %v", buf, err)
			}
			if len(gotRest) != len(rest) {
				t.Fatalf("input %x: stopped with %d bytes left, binary.Varint with %d", buf, len(gotRest), len(rest))
			}
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("input %x base %d: decoded %v, binary.Varint %v", buf, base, got, want)
		}
	})
}

// FuzzDecodeChunkBlocks checks the whole-chunk decoder against a
// per-access binary.Varint reference with the sealed-count check: a chunk
// that encodes exactly its sealed access count decodes to exactly the
// reference ids, and corrupt, truncated or padded chunks give a
// *chunkError naming the chunk, never a panic or a partial result. The
// destination is reused both empty and holding stale entries.
func FuzzDecodeChunkBlocks(f *testing.F) {
	f.Add([]byte{0x02, 0x04, 0x01}, int64(10), uint16(3))                                          // valid
	f.Add([]byte{}, int64(7), uint16(0))                                                           // empty chunk
	f.Add([]byte{0x02, 0x04}, int64(0), uint16(3))                                                 // fewer accesses than sealed
	f.Add([]byte{0x02, 0x04, 0x01, 0x00}, int64(0), uint16(3))                                     // padded past the sealed count
	f.Add([]byte{0x02, 0x80}, int64(0), uint16(2))                                                 // truncated varint
	f.Add([]byte{0x81, 0x01, 0x7f, 0x03}, int64(-5), uint16(3))                                    // mixed widths
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, int64(0), uint16(1)) // overflow
	f.Fuzz(func(t *testing.T, buf []byte, base int64, n uint16) {
		var want []int64
		prev, rest := base, buf
		for len(rest) > 0 && len(want) < int(n) {
			delta, k := binary.Varint(rest)
			if k <= 0 {
				break
			}
			prev += delta
			want = append(want, prev)
			rest = rest[k:]
		}
		valid := len(rest) == 0 && len(want) == int(n)
		meta := chunkMeta{base: base, n: int64(n), bytes: int64(len(buf)), off: -1}
		for _, dst := range [][]int64{nil, make([]int64, 5, 8)} {
			got, err := decodeChunkBlocks(dst, buf, meta, 3)
			if valid {
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("valid chunk %x base %d n %d: decoded %v, %v; want %v", buf, base, n, got, err, want)
				}
				continue
			}
			var ce *chunkError
			if !errors.As(err, &ce) || got != nil {
				t.Fatalf("bad chunk %x base %d n %d: decoded %v, err %v; want a *chunkError", buf, base, n, got, err)
			}
			if ce.chunk != 3 || ce.spilled || ce.off < 0 || ce.off > int64(len(buf)) {
				t.Fatalf("bad chunk %x n %d: chunkError %+v", buf, n, ce)
			}
		}
	})
}
