package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sampleSet builds a set of ranks traces with events[r] events on rank r.
func sampleSet(rng *rand.Rand, events ...int) *Set {
	s := NewSet(len(events))
	for r, n := range events {
		s.Traces[r].Events = sampleEvents(int32(r), n, rng)
	}
	return s
}

// checkDir checks that dir holds exactly one trace file per rank of want,
// each byte-equal to its rank's EncodeTrace stream (so also exactly as
// long), and that ReadDir gives want back.
func checkDir(t *testing.T, dir string, want *Set) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names := traceFileNames(entries); len(names) != want.Ranks() {
		t.Fatalf("dir holds %d trace files, want %d", len(names), want.Ranks())
	}
	for _, tr := range want.Traces {
		enc, err := EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, FileName(tr.Rank)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, enc) {
			t.Fatalf("rank %d: file is %d bytes and differs from its %d-byte stream",
				tr.Rank, len(data), len(enc))
		}
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks() != want.Ranks() {
		t.Fatalf("ReadDir read %d ranks, want %d", got.Ranks(), want.Ranks())
	}
	for r := range want.Traces {
		eventsEqual(t, got.Traces[r].Events, want.Traces[r].Events)
	}
}

// TestWriteDirRewrite: rewriting a trace directory over longer and
// shorter streams, and over more and fewer ranks, leaves each rank file
// exactly its new stream, with nothing of the old one past its end.
func TestWriteDirRewrite(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(35))
	for _, events := range [][]int{
		{50, 50, 50, 50},
		{400, 300, 200, 100},       // every stream longer
		{5, 30, 0, 60},             // shorter, one empty
		{70, 10, 90, 20, 1500, 40}, // more ranks, one past a chunk
		{3, 2},                     // fewer ranks
		{1200, 800},                // longer again
	} {
		want := sampleSet(rng, events...)
		if err := WriteDir(dir, want); err != nil {
			t.Fatal(err)
		}
		checkDir(t, dir, want)
	}
}

// TestWriteDirOverExistingRankFiles: whatever sits at a rank's file name
// is rewritten to the new stream: an empty file, a one-byte file, and
// junk longer than the stream. A name linked to /dev/null cannot be cut
// and is written through, without error; the other ranks are unaffected.
func TestWriteDirOverExistingRankFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	junk := make([]byte, 64<<10)
	rng.Read(junk)
	for _, tc := range []struct {
		name string
		old  []byte
	}{{"empty", nil}, {"one-byte", []byte{'X'}}, {"junk", junk}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, FileName(1)), tc.old, 0o644); err != nil {
				t.Fatal(err)
			}
			want := sampleSet(rng, 40, 120, 40)
			if err := WriteDir(dir, want); err != nil {
				t.Fatal(err)
			}
			checkDir(t, dir, want)
		})
	}
	t.Run("devnull", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.Symlink(os.DevNull, filepath.Join(dir, FileName(1))); err != nil {
			t.Skip(err)
		}
		if fi, err := os.Stat(os.DevNull); err != nil || fi.Mode().IsRegular() {
			t.Skipf("%s is not a device here", os.DevNull)
		}
		want := sampleSet(rng, 40, 120, 40)
		if err := WriteDir(dir, want); err != nil {
			t.Fatalf("WriteDir over a link to %s: %v", os.DevNull, err)
		}
		set, notes, err := ReadDirSalvage(dir, obs.Scope{})
		if err != nil {
			t.Fatal(err)
		}
		wantNotes := []string{
			"trace.1.bin: lost entirely: trace: reading header: EOF",
			"rank 1: no events recovered",
		}
		if strings.Join(notes, "\n") != strings.Join(wantNotes, "\n") {
			t.Fatalf("notes:\n%s\nwant:\n%s", strings.Join(notes, "\n"), strings.Join(wantNotes, "\n"))
		}
		eventsEqual(t, set.Traces[0].Events, want.Traces[0].Events)
		eventsEqual(t, set.Traces[2].Events, want.Traces[2].Events)
	})
}

// TestWriteDirRejectsMislabelledSet: a set whose trace i is missing or
// labelled another rank fails with Validate's error before the directory
// is touched. Written, two traces labelled rank 1 would leave one file,
// and a nil trace would crash the writer.
func TestWriteDirRejectsMislabelledSet(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, tc := range []struct {
		name, want string
		set        *Set
	}{
		{"same label", "trace: trace at index 0 labelled rank 1",
			&Set{Traces: []*Trace{{Rank: 1}, {Rank: 1}}}},
		{"nil trace", "trace: missing trace for rank 1",
			&Set{Traces: []*Trace{{Rank: 0}, nil, {Rank: 2}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := sampleSet(rng, 20, 30, 40, 50)
			dir := t.TempDir()
			if err := WriteDir(dir, old); err != nil {
				t.Fatal(err)
			}
			if err := WriteDir(dir, tc.set); err == nil || err.Error() != tc.want {
				t.Fatalf("WriteDir error = %v, want %q", err, tc.want)
			}
			checkDir(t, dir, old)
			fresh := filepath.Join(t.TempDir(), "traces")
			if err := WriteDir(fresh, tc.set); err == nil || err.Error() != tc.want {
				t.Fatalf("WriteDir error = %v, want %q", err, tc.want)
			}
			if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("WriteDir created %s before failing (stat: %v)", fresh, err)
			}
		})
	}
}

// TestWriteDirFailsPartWay: a rewrite that fails at one rank leaves no
// complete file of the earlier run after it. Rank 2's name is a link to a
// missing directory, so its open fails; rank 3's old file is cut, and a
// salvage read keeps all four ranks, names ranks 2 and 3 and reads no
// event of the earlier run.
func TestWriteDirFailsPartWay(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(39))
	if err := WriteDir(dir, sampleSet(rng, 10, 10, 10, 10)); err != nil {
		t.Fatal(err)
	}
	rank2 := filepath.Join(dir, FileName(2))
	if err := os.Remove(rank2); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "missing", FileName(2)), rank2); err != nil {
		t.Skip(err)
	}
	fresh := sampleSet(rng, 50, 50, 50, 50)
	if err := WriteDir(dir, fresh); err == nil {
		t.Fatal("WriteDir through a dangling link returned no error")
	}
	set, notes, err := ReadDirSalvage(dir, obs.Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if set.Ranks() != 4 {
		t.Fatalf("salvage read %d ranks, want 4", set.Ranks())
	}
	for r := 0; r < 2; r++ {
		eventsEqual(t, set.Traces[r].Events, fresh.Traces[r].Events)
	}
	for r := 2; r < 4; r++ {
		if n := len(set.Traces[r].Events); n != 0 {
			t.Errorf("rank %d: salvaged %d events, want none", r, n)
		}
	}
	wantNotes := []string{"trace.2.bin: unreadable", "trace.3.bin: lost entirely", "rank 2: no events recovered", "rank 3: no events recovered"}
	if len(notes) != len(wantNotes) {
		t.Fatalf("notes %q, want %d starting %q", notes, len(wantNotes), wantNotes)
	}
	for i, want := range wantNotes {
		if !strings.HasPrefix(notes[i], want) {
			t.Errorf("note %d = %q, want one starting %q", i, notes[i], want)
		}
	}
}

var errStopped = errors.New("write stopped")

// stopWriter passes the first left bytes written through to w, then fails,
// as a writer killed part way stops.
type stopWriter struct {
	w    io.Writer
	left int
}

func (s *stopWriter) Write(p []byte) (int, error) {
	if len(p) <= s.left {
		n, err := s.w.Write(p)
		s.left -= n
		return n, err
	}
	n, err := s.w.Write(p[:s.left])
	s.left -= n
	if err == nil {
		err = errStopped
	}
	return n, err
}

// writeSizes records the length of each write.
type writeSizes []int

func (w *writeSizes) Write(p []byte) (int, error) {
	*w = append(*w, len(p))
	return len(p), nil
}

// TestWriteStoppedPartWay: a rank-file write stopped after k bytes, over
// an old file longer than the new stream, leaves exactly the new stream's
// first k bytes, which ReadDirSalvage reads as a truncated prefix of the
// new trace (or, with too few bytes for a header, as lost entirely),
// never as new records in front of old ones. k is 1, inside the first
// chunk, at its end, and inside the second.
func TestWriteStoppedPartWay(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	tr := &Trace{Rank: 0, Events: sampleEvents(0, 2000, rng)}
	stream, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	var chunks writeSizes
	if _, err := encodeTrace(&chunks, tr); err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("stream of %d bytes takes %d write(s), want a second chunk", len(stream), len(chunks))
	}
	oldTr := &Trace{Rank: 0, Events: sampleEvents(0, 3000, rng)}
	old, err := EncodeTrace(oldTr)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) <= len(stream) {
		t.Fatalf("old stream %d bytes, want longer than the new %d", len(old), len(stream))
	}
	first := chunks[0]
	for _, k := range []int{1, first / 2, first, first + chunks[1]/2} {
		dir := t.TempDir()
		path := filepath.Join(dir, FileName(0))
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := openRankFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = encodeTrace(&stopWriter{w: f, left: k}, tr)
		if cerr := f.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if !errors.Is(err, errStopped) {
			t.Fatalf("k=%d: encodeTrace error = %v, want %v", k, err, errStopped)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, stream[:k]) {
			t.Fatalf("k=%d: file holds %d bytes, not the new stream's first %d", k, len(data), k)
		}
		set, notes, err := ReadDirSalvage(dir, obs.Scope{})
		if k == 1 {
			if err == nil || len(notes) == 0 || !strings.HasPrefix(notes[0], "trace.0.bin: lost entirely") {
				t.Fatalf("k=1: err %v, notes %q; want the rank lost entirely", err, notes)
			}
			continue
		}
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		n := len(set.Traces[0].Events)
		wantNote := "trace.0.bin: truncated, salvaged " + strconv.Itoa(n) + "-event prefix"
		if len(notes) != 1 || !strings.HasPrefix(notes[0], wantNote) {
			t.Fatalf("k=%d: notes %q, want one starting %q", k, notes, wantNote)
		}
		if n == 0 || n >= len(tr.Events) {
			t.Fatalf("k=%d: salvaged %d of %d events, want a proper prefix", k, n, len(tr.Events))
		}
		eventsEqual(t, set.Traces[0].Events, tr.Events[:n])
	}
}
