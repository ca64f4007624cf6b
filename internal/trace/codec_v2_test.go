package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// reheader rewrites the header of an EncodeTrace stream with another
// version and count hint, giving the headers of other writers: version 1
// is the pre-hint format (hint ignored), and a version-2 hint of 0 is what
// a writer that streamed events without knowing their count wrote.
func reheader(tb testing.TB, data []byte, version byte, hint uint64) []byte {
	tb.Helper()
	if len(data) < 6 || string(data[:4]) != codecMagic || data[4] != codecVersion {
		tb.Fatalf("not a v2 stream: % x", data[:min(len(data), 6)])
	}
	_, rankLen := binary.Varint(data[5:])
	if rankLen <= 0 {
		tb.Fatal("bad rank varint")
	}
	_, hintLen := binary.Uvarint(data[5+rankLen:])
	if hintLen <= 0 {
		tb.Fatal("bad hint uvarint")
	}
	out := append([]byte(nil), data[:4]...)
	out = append(out, version)
	out = append(out, data[5:5+rankLen]...)
	if version == codecVersion {
		out = binary.AppendUvarint(out, hint)
	}
	return append(out, data[5+rankLen+hintLen:]...)
}

func encodeSample(t *testing.T, rank int32, n int) (*Trace, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rank)*1000 + int64(n)))
	tr := &Trace{Rank: rank, Events: sampleEvents(rank, n, rng)}
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr, data
}

func eventsEqual(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(normalize(got[i]), normalize(want[i])) {
			t.Fatalf("event %d mismatch:\n got %#v\nwant %#v", i, got[i], want[i])
		}
	}
}

// TestCodecV1StreamsStillDecode: the reader must accept the pre-hint
// format byte-for-byte, both strictly and in salvage mode.
func TestCodecV1StreamsStillDecode(t *testing.T) {
	want, v2 := encodeSample(t, 5, 120)
	v1 := reheader(t, v2, codecVersionV1, 0)

	got, err := ReadTrace(v1)
	if err != nil {
		t.Fatalf("strict v1 decode: %v", err)
	}
	if got.Rank != 5 {
		t.Fatalf("rank = %d", got.Rank)
	}
	eventsEqual(t, got.Events, want.Events)

	sv, res, err := ReadTraceSalvage(v1)
	if err != nil {
		t.Fatalf("salvage v1 decode: %v", err)
	}
	if !res.Complete || res.Events != len(want.Events) {
		t.Fatalf("salvage result %+v on a complete v1 stream", res)
	}
	eventsEqual(t, sv.Events, want.Events)
}

// TestCodecSalvageTruncatedV1: truncating a v1 stream still yields a
// valid event prefix, like v2.
func TestCodecSalvageTruncatedV1(t *testing.T) {
	want, v2 := encodeSample(t, 2, 80)
	v1 := reheader(t, v2, codecVersionV1, 0)
	for _, cut := range []int{len(v1) / 4, len(v1) / 2, len(v1) - 1} {
		got, res, err := ReadTraceSalvage(v1[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if res.Complete {
			t.Fatalf("cut %d: truncated stream reported complete", cut)
		}
		if len(got.Events) > len(want.Events) {
			t.Fatalf("cut %d: salvaged %d events from an %d-event stream", cut, len(got.Events), len(want.Events))
		}
		eventsEqual(t, got.Events, want.Events[:len(got.Events)])
	}
}

// TestCodecHintMismatchTolerated: the count hint is advisory; streams
// carrying hints far above or below the actual event count decode fully.
func TestCodecHintMismatchTolerated(t *testing.T) {
	want, data := encodeSample(t, 0, 37)
	for _, hint := range []uint64{0, 1, 37, 5000} {
		got, err := ReadTrace(reheader(t, data, codecVersion, hint))
		if err != nil {
			t.Fatalf("hint %d: %v", hint, err)
		}
		eventsEqual(t, got.Events, want.Events)
	}
}

// TestCodecHugeHintClamped: a hostile header hinting 2^40 events must not
// force a giant allocation; the hint is clamped and decode proceeds.
func TestCodecHugeHintClamped(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(codecMagic)
	buf.WriteByte(codecVersion)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], 0) // rank 0
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], 1<<40)
	buf.Write(tmp[:n])
	buf.WriteByte(recEnd)

	got, err := ReadTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 0 {
		t.Fatalf("decoded %d events from an empty stream", len(got.Events))
	}
	if cap(got.Events) > maxPreallocEvents {
		t.Fatalf("hint preallocated %d slots; clamp is %d", cap(got.Events), maxPreallocEvents)
	}
}

// TestDecodePoolReuseSequential: repeated decodes hit the context pool
// and keep producing identical results.
func TestDecodePoolReuseSequential(t *testing.T) {
	want, data := encodeSample(t, 3, 150)

	hits0, _ := DecodePoolStats()
	for i := 0; i < 10; i++ {
		got, err := ReadTrace(data)
		if err != nil {
			t.Fatal(err)
		}
		eventsEqual(t, got.Events, want.Events)
	}
	hits1, _ := DecodePoolStats()
	if hits1 <= hits0 {
		t.Errorf("10 sequential decodes produced no pool hits (hits %d -> %d)", hits0, hits1)
	}
}

// TestDecodePoolOffEquivalence: a decode that finds the pool empty and
// builds a fresh context, and the decode after it, which may recycle that
// context, must both produce the encoded events.
func TestDecodePoolOffEquivalence(t *testing.T) {
	want, data := encodeSample(t, 1, 90)
	// A sync.Pool survives one collection in its victim cache; the second
	// empties it.
	runtime.GC()
	runtime.GC()
	_, misses0 := DecodePoolStats()
	for i := 0; i < 2; i++ {
		got, err := ReadTrace(data)
		if err != nil {
			t.Fatal(err)
		}
		eventsEqual(t, got.Events, want.Events)
		if _, misses := DecodePoolStats(); i == 0 && misses <= misses0 {
			t.Fatalf("decode after emptying the pool recorded no miss (misses %d -> %d)", misses0, misses)
		}
	}
}

// TestDecodePoolConcurrent exercises pooled decode contexts from many
// goroutines; run under -race this proves contexts are never shared.
func TestDecodePoolConcurrent(t *testing.T) {
	traces := make([]*Trace, 4)
	datas := make([][]byte, 4)
	for r := range traces {
		traces[r], datas[r] = encodeSample(t, int32(r), 60+10*r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := (g + i) % len(traces)
				got, err := ReadTrace(datas[r])
				if err != nil {
					t.Error(err)
					return
				}
				if got.Rank != traces[r].Rank || len(got.Events) != len(traces[r].Events) {
					t.Errorf("goroutine %d: decoded rank %d with %d events, want rank %d with %d",
						g, got.Rank, len(got.Events), traces[r].Rank, len(traces[r].Events))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReadDirMatchesSerialAssembly: ReadDir, which reads the rank files
// one at a time into one reused buffer, assembles the set that was
// written, rank by rank and event by event.
func TestReadDirMatchesSerialAssembly(t *testing.T) {
	dir := t.TempDir()
	set := NewSet(6)
	rng := rand.New(rand.NewSource(77))
	for r := range set.Traces {
		set.Traces[r].Events = sampleEvents(int32(r), 40+7*r, rng)
	}
	if err := WriteDir(dir, set); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks() != set.Ranks() {
		t.Fatalf("got %d ranks, want %d", got.Ranks(), set.Ranks())
	}
	for r := range set.Traces {
		eventsEqual(t, got.Traces[r].Events, set.Traces[r].Events)
	}
}
