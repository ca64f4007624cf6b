package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memory"
)

func sampleEvents(rank int32, n int, rng *rand.Rand) []Event {
	kinds := []Kind{KindLoad, KindStore, KindPut, KindGet, KindAccumulate,
		KindWinFence, KindWinLock, KindWinUnlock, KindSend, KindRecv,
		KindBarrier, KindBcast, KindCommCreate, KindTypeCreate, KindWinCreate}
	files := []string{"/src/app.go", "/src/lib/halo.go", "/src/app.go", ""}
	evs := make([]Event, n)
	for i := range evs {
		k := kinds[rng.Intn(len(kinds))]
		ev := Event{
			Kind: k, Rank: rank, Seq: int64(i),
			File: files[rng.Intn(len(files))], Line: int32(rng.Intn(500)),
			Comm: int32(rng.Intn(3)), Peer: int32(rng.Intn(8)), Tag: int32(rng.Intn(100)),
			Req: int32(rng.Intn(50)), Win: int32(rng.Intn(4)), Target: int32(rng.Intn(8)),
			Lock: LockType(rng.Intn(3)), AccOp: AccOp(rng.Intn(6)),
			OriginAddr: rng.Uint64() >> 16, OriginType: TypeInt32, OriginCount: int32(rng.Intn(1000)),
			TargetDisp: uint64(rng.Intn(4096)), TargetType: TypeFloat64, TargetCount: int32(rng.Intn(1000)),
			Assert: int32(rng.Intn(4)), Addr: rng.Uint64() >> 20, Size: uint64(rng.Intn(64)),
		}
		switch k {
		case KindTypeCreate:
			ev.Def = &Def{
				TypeID: TypeUserBase + int32(rng.Intn(10)),
				TypeMap: memory.DataMap{
					Segments: []memory.Segment{{Disp: 0, Len: 4}, {Disp: 12, Len: 4}},
					Extent:   16,
				},
			}
		case KindCommCreate:
			ev.Def = &Def{Members: []int32{0, 2, 5}}
		case KindWinCreate:
			ev.Def = &Def{WinBase: 0x10000, WinSize: 8192, DispUnit: 8}
		}
		evs[i] = ev
	}
	return evs
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	evs := sampleEvents(7, 200, rng)
	data, err := EncodeTrace(&Trace{Rank: 7, Events: evs})
	if err != nil {
		t.Fatal(err)
	}

	got, err := ReadTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 7 {
		t.Fatalf("rank = %d", got.Rank)
	}
	if len(got.Events) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got.Events), len(evs))
	}
	for i := range evs {
		if !reflect.DeepEqual(normalize(evs[i]), normalize(got.Events[i])) {
			t.Fatalf("event %d mismatch:\n got %#v\nwant %#v", i, got.Events[i], evs[i])
		}
	}
}

// normalize maps nil and empty slices, and a Def whose fields are all
// zero, to the canonical form the decoder produces, for comparison.
func normalize(ev Event) Event {
	if ev.Def == nil {
		return ev
	}
	def := *ev.Def
	if len(def.TypeMap.Segments) == 0 {
		def.TypeMap.Segments = nil
	}
	if len(def.Members) == 0 {
		def.Members = nil
	}
	ev.Def = &def
	if def.isZero() {
		ev.Def = nil
	}
	return ev
}

// TestCodecRejectsOutOfOrder: event i of a rank's trace must be
// (rank, i), as Set.Validate requires; the encoder names the first event
// that is not.
func TestCodecRejectsOutOfOrder(t *testing.T) {
	tr := &Trace{Rank: 0, Events: []Event{
		{Kind: KindBarrier, Rank: 0, Seq: 0},
		{Kind: KindBarrier, Rank: 0, Seq: 5},
	}}
	_, err := EncodeTrace(tr)
	const want = "trace: event {0 5} out of order for rank 0 writer (want seq 1)"
	if err == nil || err.Error() != want {
		t.Errorf("EncodeTrace error = %v, want %q", err, want)
	}
	tr.Events[1].Seq, tr.Events[1].Rank = 1, 2
	if _, err := EncodeTrace(tr); err == nil {
		t.Error("EncodeTrace accepted an event labelled with another rank")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace([]byte("NOPE")); err == nil {
		t.Error("expected error for bad magic")
	}
	if _, err := ReadTrace([]byte("MCCT\x63\x00\x00")); err == nil {
		t.Error("expected error for bad version")
	}
	data, err := EncodeTrace(&Trace{Events: []Event{{Kind: KindBarrier}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(data[:len(data)-3]); err == nil {
		t.Error("expected error for truncated stream")
	}
}

func TestStringInterningSharesTable(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 100; i++ {
		tr.Events = append(tr.Events, Event{Kind: KindLoad, Rank: 0, Seq: int64(i), File: "/very/long/path/to/the/source/file.go", Line: int32(i)})
	}
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Each event encodes ~25 mostly-zero varint fields (~30 bytes); without
	// interning the 38-byte path would add ~38 bytes per event on top.
	if len(data) > 100*40 {
		t.Errorf("stream is %d bytes; interning appears broken", len(data))
	}
	got, err := ReadTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events[99].File != "/very/long/path/to/the/source/file.go" {
		t.Error("interned string not restored")
	}
}
