package trace

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// buildTrace encodes n sample events for one rank.
func buildTrace(t *testing.T, rank int32, n int, seed int64) ([]byte, []Event) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	evs := sampleEvents(rank, n, rng)
	data, err := EncodeTrace(&Trace{Rank: rank, Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	return data, evs
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
	got, err := ReadTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 7 || len(got.Events) != 15 {
		t.Fatalf("round trip: rank %d, %d events", got.Rank, len(got.Events))
	}
}

// TestWriteDirCreateFailure: when a rank file cannot be created, WriteDir
// returns that error instead of leaving a silently incomplete directory.
func TestWriteDirCreateFailure(t *testing.T) {
	dir := t.TempDir()
	// A directory where rank 1's file should go makes its create fail.
	if err := os.Mkdir(filepath.Join(dir, FileName(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	err := WriteDir(dir, NewSet(2))
	var perr *fs.PathError
	if !errors.As(err, &perr) || perr.Op != "open" || filepath.Base(perr.Path) != FileName(1) {
		t.Fatalf("WriteDir error = %v, want the failed create of %s", err, FileName(1))
	}
}

// TestWriteDirRemovesStaleTraceFiles: writing a 2-rank set into the
// directory of a 4-rank run leaves nothing of that run for ReadDir to
// read: not its ranks 2 and 3, and not a trace.01.bin, which sorts before
// trace.1.bin and would supply rank 1.
func TestWriteDirRemovesStaleTraceFiles(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	set := func(ranks int) *Set {
		s := NewSet(ranks)
		for r := range s.Traces {
			s.Traces[r].Events = sampleEvents(int32(r), 10+r, rng)
		}
		return s
	}
	if err := WriteDir(dir, set(4)); err != nil {
		t.Fatal(err)
	}
	stale, _ := buildTrace(t, 1, 9, 98)
	if err := os.WriteFile(filepath.Join(dir, "trace.01.bin"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	want := set(2)
	if err := WriteDir(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks() != want.Ranks() {
		t.Fatalf("ReadDir read %d ranks, want %d", got.Ranks(), want.Ranks())
	}
	for r, tr := range want.Traces {
		if len(got.Traces[r].Events) != len(tr.Events) {
			t.Fatalf("rank %d: read %d events, want %d", r, len(got.Traces[r].Events), len(tr.Events))
		}
		for i := range tr.Events {
			if !reflect.DeepEqual(normalize(tr.Events[i]), normalize(got.Traces[r].Events[i])) {
				t.Fatalf("rank %d event %d differs", r, i)
			}
		}
	}
}

// TestReadDirSalvageGoldenNotes pins every degradation note a directory
// read can produce, in order, with each rank's recovered event count: the
// salvage corpus's truncated and missing ranks, a zero-byte file, a file
// whose header names another rank, and trace.01.bin beside trace.1.bin
// (it sorts first, so it supplies rank 1 and trace.1.bin is the
// duplicate).
func TestReadDirSalvageGoldenNotes(t *testing.T) {
	dir := t.TempDir()
	writeSalvageCorpus(t, dir, 24)
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(FileName(24), nil)
	other, _ := buildTrace(t, 2, 4, 99)
	write(FileName(25), other)
	alias, _ := buildTrace(t, 1, 9, 98)
	write("trace.01.bin", alias)

	set, notes, err := ReadDirSalvage(dir, obs.Scope{})
	if err != nil {
		t.Fatal(err)
	}
	wantNotes := []string{
		"trace.1.bin: duplicate of rank 1; ignored",
		"trace.10.bin: truncated, salvaged 26-event prefix (event 26 undecodable: EOF)",
		"trace.13.bin: truncated, salvaged 28-event prefix (event 28 undecodable: unexpected EOF)",
		"trace.16.bin: truncated, salvaged 30-event prefix (event 30 undecodable: EOF)",
		"trace.22.bin: truncated, salvaged 34-event prefix (event 34 undecodable: unexpected EOF)",
		"trace.24.bin: lost entirely: trace: reading header: EOF",
		"trace.25.bin: header claims rank 2; ignored",
		"trace.4.bin: truncated, salvaged 22-event prefix (event 22 undecodable: EOF)",
		"trace.7.bin: truncated, salvaged 24-event prefix (event 24 undecodable: unexpected EOF)",
		"rank 5: no events recovered",
		"rank 12: no events recovered",
		"rank 19: no events recovered",
		"rank 24: no events recovered",
		"rank 25: no events recovered",
	}
	if !reflect.DeepEqual(notes, wantNotes) {
		t.Errorf("notes:\n%s\nwant:\n%s", strings.Join(notes, "\n"), strings.Join(wantNotes, "\n"))
	}
	wantEvents := []int{30, 9, 32, 33, 22, 0, 36, 24, 38, 39, 26, 41, 0, 28, 44, 45, 30, 47, 48, 0, 50, 51, 34, 53, 0, 0}
	got := make([]int, set.Ranks())
	for r, tr := range set.Traces {
		got[r] = len(tr.Events)
	}
	if !reflect.DeepEqual(got, wantEvents) {
		t.Errorf("events per rank = %#v, want %#v", got, wantEvents)
	}
}

// A name whose rank is negative or does not fit an int32 is not a trace
// file: it must neither crash the read nor size the set.
func TestReadDirIgnoresOutOfRangeRankNames(t *testing.T) {
	dir := t.TempDir()
	for name, rank := range map[string]int32{FileName(0): 0, "trace.-1.bin": -1, "trace.4294967296.bin": 0} {
		data, _ := buildTrace(t, rank, 3, 1)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	set, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Ranks() != 1 {
		t.Fatalf("set spans %d ranks, want 1", set.Ranks())
	}
}

func TestReadStreamsRejectsNegativeRank(t *testing.T) {
	data, _ := buildTrace(t, 0, 3, 1)
	if _, _, err := ReadStreams([]Stream{{Name: "upload", Rank: -1, Data: data}}, obs.Scope{}); err == nil {
		t.Fatal("want an error for a stream declared for rank -1")
	}
}
