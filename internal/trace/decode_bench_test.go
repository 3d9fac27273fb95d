package trace

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// benchChunk seals one full 64KB chunk of streaming-shaped deltas and
// returns its bytes and metadata — the unit ForEach decodes at a time.
func benchChunk(b *testing.B) ([]byte, chunkMeta) {
	b.Helper()
	rng := rand.New(rand.NewSource(41))
	l := NewLog()
	var blk int64
	for len(l.metas) == 0 {
		switch rng.Intn(4) {
		case 0:
			blk++ // streaming stride: one-byte delta
		case 1:
			blk = rng.Int63n(600)
		case 2:
			blk = rng.Int63n(32)
		default:
			blk = -rng.Int63n(64) - 1
		}
		l.RecordBlock(blk)
	}
	return l.chunks[0], l.metas[0]
}

// BenchmarkDecodeChunk compares the batched whole-chunk varint fast path
// (what ForEach, and so every FanOut, runs) against the
// per-access binary.Varint loop it replaced. The batched path's win is
// the point of the shared decode primitive; a regression here slows every
// replay in the system.
func BenchmarkDecodeChunk(b *testing.B) {
	buf, meta := benchChunk(b)

	b.Run("batched", func(b *testing.B) {
		dst := make([]int64, 0, meta.n)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := decodeChunkBlocks(dst, buf, meta, 0)
			if err != nil {
				b.Fatal(err)
			}
			dst = out[:0]
		}
	})

	b.Run("varint", func(b *testing.B) {
		// The pre-batching decoder: one binary.Varint call per access.
		dst := make([]int64, 0, meta.n)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			rest := buf
			prev := meta.base
			for len(rest) > 0 {
				delta, m := binary.Varint(rest)
				if m <= 0 {
					b.Fatal("corrupt varint")
				}
				rest = rest[m:]
				prev += delta
				dst = append(dst, prev)
			}
			if int64(len(dst)) != meta.n {
				b.Fatalf("decoded %d of %d", len(dst), meta.n)
			}
		}
	})
}
