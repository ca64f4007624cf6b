package trace

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// buildTrace encodes n sample events for one rank.
func buildTrace(t *testing.T, rank int32, n int, seed int64) ([]byte, []Event) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	evs := sampleEvents(rank, n, rng)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, rank)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), evs
}

func TestReadDirSalvage(t *testing.T) {
	dir := t.TempDir()
	full, _ := buildTrace(t, 0, 20, 1)
	cutme, _ := buildTrace(t, 1, 20, 2)
	if err := os.WriteFile(filepath.Join(dir, FileName(0)), full, 0o644); err != nil {
		t.Fatal(err)
	}
	// Rank 1's file loses its second half; rank 2 is missing entirely but
	// rank 3 exists, so the set must still span ranks 0..3.
	if err := os.WriteFile(filepath.Join(dir, FileName(1)), cutme[:len(cutme)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r3, _ := buildTrace(t, 3, 5, 3)
	if err := os.WriteFile(filepath.Join(dir, FileName(3)), r3, 0o644); err != nil {
		t.Fatal(err)
	}

	set, notes, err := ReadDirSalvage(dir, obs.Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Traces) != 4 {
		t.Fatalf("set spans %d ranks, want 4", len(set.Traces))
	}
	if len(set.Traces[0].Events) != 20 {
		t.Fatalf("rank 0 lost events: %d", len(set.Traces[0].Events))
	}
	if n := len(set.Traces[1].Events); n == 0 || n >= 20 {
		t.Fatalf("rank 1 salvaged %d events, want a proper prefix", n)
	}
	if len(set.Traces[2].Events) != 0 {
		t.Fatalf("missing rank 2 should be empty, has %d events", len(set.Traces[2].Events))
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	wantNotes := []string{"trace.1.bin: truncated", "rank 2: no events recovered"}
	for _, want := range wantNotes {
		found := false
		for _, n := range notes {
			if bytes.Contains([]byte(n), []byte(want)) {
				found = true
			}
		}
		if !found {
			t.Fatalf("notes %v missing %q", notes, want)
		}
	}
}

func TestReadDirSalvageEmptyDir(t *testing.T) {
	if _, _, err := ReadDirSalvage(t.TempDir(), obs.Scope{}); err == nil {
		t.Fatal("want error for directory without trace files")
	}
}

func TestApplyTruncFaults(t *testing.T) {
	set := NewSet(2)
	rng := rand.New(rand.NewSource(4))
	for r := int32(0); r < 2; r++ {
		set.Traces[r].Events = sampleEvents(r, 30, rng)
	}
	plan := &faults.Plan{Seed: 1, Truncs: []faults.Trunc{{Rank: 1, Frac: 0.5}}}
	out, notes, err := ApplyTruncFaults(set, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Traces[0].Events) != 30 {
		t.Fatalf("untouched rank 0 has %d events", len(out.Traces[0].Events))
	}
	if n := len(out.Traces[1].Events); n == 0 || n >= 30 {
		t.Fatalf("rank 1 has %d events, want a proper prefix", n)
	}
	if len(notes) != 1 {
		t.Fatalf("want one note, got %v", notes)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// No truncation faults: the set passes through untouched.
	same, notes, err := ApplyTruncFaults(set, nil, nil)
	if err != nil || same != set || notes != nil {
		t.Fatalf("nil plan changed the set: %v %v", notes, err)
	}
}

// EncodeTrace must round-trip through the strict reader.
func TestEncodeTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := &Trace{Rank: 7, Events: sampleEvents(7, 15, rng)}
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 7 || len(got.Events) != 15 {
		t.Fatalf("round trip: rank %d, %d events", got.Rank, len(got.Events))
	}
}

// A failed write must be visible through FileSink.Err before Close — the
// run path warns on it instead of silently losing a rank's trace.
func TestFileSinkErrSurfacesWriteFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	s, err := NewFileSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Emit(Event{Kind: KindBarrier, Rank: 0})
	if err := s.Err(); err != nil {
		t.Fatalf("healthy sink reports %v", err)
	}
	// Removing the directory makes the next rank's file creation fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s.Emit(Event{Kind: KindBarrier, Rank: 1})
	if err := s.Err(); err == nil {
		t.Fatal("sink swallowed the write failure")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close must surface the failure too")
	}
}
