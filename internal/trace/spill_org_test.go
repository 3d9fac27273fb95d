package trace_test

// Regression test for the spill x organisation-profiling interaction: a
// log that spilled sealed chunks to disk must replay into exactly the
// same organisation curves as the identical in-memory log. The spill path
// decodes through a different code path (ReadAt over the unlinked temp
// file, then the in-memory tail), so a windowing or delta-base bug there
// would silently corrupt every curve; this pins byte-for-byte equality of
// the profiles. ProfileHierJobs' spill equivalence is covered by the
// mirror-image test in internal/hierarchy.

import (
	"math/rand"
	"reflect"
	"testing"

	"streamsched/internal/trace"
)

func TestProfileOrgsSpillIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Long enough that several 64 KiB chunks seal and cross the threshold.
	blocks := randomStream(rng, 300000, 600)
	record := func(spillAt int64) *trace.Log {
		l := trace.NewLog()
		if spillAt > 0 {
			l.SetSpillThreshold(spillAt)
		}
		for i, blk := range blocks {
			if i == 40000 {
				l.MarkWindow()
			}
			l.RecordBlock(blk)
		}
		return l
	}
	mem := record(0)
	spilled := record(1 << 12)
	defer spilled.Close()
	if !spilled.Spilled() {
		t.Fatal("spill threshold never triggered; the test is vacuous")
	}
	if mem.Len() != spilled.Len() || mem.WindowStart() != spilled.WindowStart() {
		t.Fatalf("logs diverge before profiling: %d/%d accesses, window %d/%d",
			mem.Len(), spilled.Len(), mem.WindowStart(), spilled.WindowStart())
	}
	specs := []trace.OrgSpec{
		{Sets: 1, FIFOWays: []int64{16, 64}},
		{Sets: 8, FIFOWays: []int64{4}},
		{Sets: 32},
	}
	a, err := trace.ProfileOrgsJobs(mem, specs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.ProfileOrgsJobs(spilled, specs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("spill-backed organisation curves differ from in-memory curves")
	}
	// Spot-check a few evaluation points so a DeepEqual false negative on
	// unexported state cannot hide a real divergence silently.
	for i := range a {
		for _, w := range []int64{1, 4, 16} {
			if a[i].LRU.Misses(w) != b[i].LRU.Misses(w) {
				t.Errorf("spec %d LRU ways %d: %d vs %d", i, w, a[i].LRU.Misses(w), b[i].LRU.Misses(w))
			}
		}
	}
	// The spilled log must stay appendable and re-profilable after replay.
	if _, err := trace.ProfileOrgsJobs(spilled, specs, 1, 1); err != nil {
		t.Errorf("second profiling pass over the spilled log: %v", err)
	}
	// Full-stats accounting: both logs saw the same stream and seal chunks
	// identically; only the spill destination differs, and each
	// ProfileOrgsJobs pass costs exactly one replay.
	st, stMem := spilled.Stats(), mem.Stats()
	if st.Accesses != int64(len(blocks)) || stMem.Accesses != int64(len(blocks)) {
		t.Errorf("stats count %d/%d accesses, recorded %d", st.Accesses, stMem.Accesses, len(blocks))
	}
	if st.Chunks != stMem.Chunks || st.Chunks == 0 {
		t.Errorf("chunk counts diverge: spilled sealed %d, in-memory %d", st.Chunks, stMem.Chunks)
	}
	if st.SpilledBytes == 0 || stMem.SpilledBytes != 0 {
		t.Errorf("spill accounting: spilled log %d bytes, in-memory log %d", st.SpilledBytes, stMem.SpilledBytes)
	}
	if st.Replays != 2 || stMem.Replays != 1 {
		t.Errorf("replay accounting: spilled %d (want 2), in-memory %d (want 1)", st.Replays, stMem.Replays)
	}
}
