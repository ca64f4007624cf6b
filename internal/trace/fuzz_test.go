package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memory"
)

// FuzzReadTrace hardens the binary decoder against corrupt and adversarial
// inputs: it must return an error or a valid trace, never panic and never
// allocate unboundedly.
func FuzzReadTrace(f *testing.F) {
	// Seed with valid streams of growing complexity.
	rng := rand.New(rand.NewSource(42))
	var largest []byte
	for _, n := range []int{0, 1, 10, 100} {
		var err error
		if largest, err = EncodeTrace(&Trace{Rank: 3, Events: sampleEvents(3, n, rng)}); err != nil {
			f.Fatal(err)
		}
		f.Add(largest)
	}
	f.Add([]byte("MCCT"))
	f.Add([]byte{})
	// The largest stream again with the headers of older writers: v1, and
	// v2 with an unknown (0) event count.
	f.Add(reheader(f, largest, codecVersionV1, 0))
	f.Add(reheader(f, largest, codecVersion, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(data)
		if err != nil {
			return
		}
		// A successfully decoded trace must be internally consistent.
		for i := range tr.Events {
			ev := &tr.Events[i]
			if ev.Rank != tr.Rank || ev.Seq != int64(i) {
				t.Fatalf("inconsistent decode: event %d = %v", i, ev.ID())
			}
			if ev.Kind == KindInvalid || ev.Kind >= kindMax {
				t.Fatalf("invalid kind decoded: %d", ev.Kind)
			}
		}
	})
}

// FuzzReadTraceSalvage hardens the salvage decoder: it must never panic,
// and whatever it recovers must be a valid (possibly empty) event prefix
// with dense sequence numbers and legal kinds. On any stream strict
// ReadTrace accepts, salvage must agree exactly and report completeness.
func FuzzReadTraceSalvage(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	golden, err := EncodeTrace(&Trace{Rank: 3, Events: sampleEvents(3, 40, rng)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, cut := range []int{0, 1, 5, len(golden) / 2, len(golden) - 1} {
		f.Add(golden[:cut])
	}
	v1 := reheader(f, golden, codecVersionV1, 0)
	f.Add(v1)
	f.Add(v1[:len(v1)/2])
	f.Add(reheader(f, golden, codecVersion, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, res, err := ReadTraceSalvage(data)
		strict, serr := ReadTrace(data)
		if err != nil {
			// Salvage gives up only when the header itself is unreadable —
			// then strict decoding must have failed too.
			if serr == nil {
				t.Fatalf("salvage rejected a stream strict decoding accepts")
			}
			return
		}
		if res.Events != len(tr.Events) {
			t.Fatalf("result reports %d events, trace holds %d", res.Events, len(tr.Events))
		}
		if res.Complete == (res.Reason != "") {
			t.Fatalf("inconsistent result: complete=%v reason=%q", res.Complete, res.Reason)
		}
		for i := range tr.Events {
			ev := &tr.Events[i]
			if ev.Rank != tr.Rank || ev.Seq != int64(i) {
				t.Fatalf("invalid prefix: event %d = %v", i, ev.ID())
			}
			if ev.Kind == KindInvalid || ev.Kind >= kindMax {
				t.Fatalf("invalid kind recovered: %d", ev.Kind)
			}
		}
		if serr == nil {
			if !res.Complete {
				t.Fatalf("strict decoding succeeded but salvage reports truncation: %q", res.Reason)
			}
			if len(tr.Events) != len(strict.Events) {
				t.Fatalf("salvage recovered %d events, strict %d", len(tr.Events), len(strict.Events))
			}
		}
	})
}

// TestSalvageEveryTruncationBoundary cuts a golden trace at every byte
// offset — every header and record boundary included — and checks that
// salvage recovers a correct, monotonically growing event prefix.
func TestSalvageEveryTruncationBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := sampleEvents(2, 25, rng)
	golden, err := EncodeTrace(&Trace{Rank: 2, Events: evs})
	if err != nil {
		t.Fatal(err)
	}

	full, res, err := ReadTraceSalvage(golden)
	if err != nil || !res.Complete || len(full.Events) != len(evs) {
		t.Fatalf("golden trace: recovered %d/%d events, complete=%v, err=%v",
			len(full.Events), len(evs), res.Complete, err)
	}

	prev, headerDone := 0, false
	for cut := 0; cut <= len(golden); cut++ {
		tr, res, err := ReadTraceSalvage(golden[:cut])
		if err != nil {
			// Only an unreadable header is fatal, and once any cut clears
			// the header, every longer cut must too.
			if headerDone {
				t.Fatalf("cut %d: header error after a shorter cut succeeded: %v", cut, err)
			}
			continue
		}
		headerDone = true
		if cut < len(golden) && res.Complete {
			t.Fatalf("cut %d: truncated stream claims completeness", cut)
		}
		if cut == len(golden) && !res.Complete {
			t.Fatalf("full stream not recognized as complete: %q", res.Reason)
		}
		if len(tr.Events) < prev {
			t.Fatalf("cut %d: recovered %d events, shorter cut gave %d", cut, len(tr.Events), prev)
		}
		prev = len(tr.Events)
		for i := range tr.Events {
			if tr.Events[i].ID() != full.Events[i].ID() {
				t.Fatalf("cut %d: event %d = %v, want %v", cut, i, tr.Events[i].ID(), full.Events[i].ID())
			}
		}
	}
	if !headerDone {
		t.Fatal("no cut cleared the header")
	}
}

// FuzzRoundTrip: any event assembled from fuzzed fields must survive
// encode/decode unchanged. The fields cover every kind of value the
// encoder writes: interned strings, signed and unsigned varints, a
// datatype segment, a communicator member and the window's unit.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(3), int32(1), int32(2), int64(99), uint64(0x1000), "file.go",
		"main.main", int32(-7), uint64(4), uint64(8), int32(5), uint32(8))
	f.Fuzz(func(t *testing.T, kind uint8, comm, target int32, disp int64, addr uint64, file string,
		fn string, line int32, segDisp, segLen uint64, member int32, dispUnit uint32) {
		k := Kind(kind)
		if k == KindInvalid || k >= kindMax {
			return
		}
		if disp < 0 {
			disp = -disp
		}
		if line > 0 {
			line = -line
		}
		ev := Event{
			Kind: k, Rank: 5, Seq: 0, File: file, Func: fn, Line: line, Comm: comm, Target: target,
			TargetDisp: uint64(disp), Addr: addr,
			Def: &Def{
				TypeMap:  memory.DataMap{Segments: []memory.Segment{{Disp: segDisp, Len: segLen}}, Extent: segDisp + segLen},
				Members:  []int32{member},
				DispUnit: dispUnit,
			},
		}
		data, err := EncodeTrace(&Trace{Rank: 5, Events: []Event{ev}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadTrace(data)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(got.Events) != 1 {
			t.Fatalf("decoded %d events", len(got.Events))
		}
		if !reflect.DeepEqual(got.Events[0], ev) {
			t.Fatalf("mismatch:\n got %+v\nwant %+v", got.Events[0], ev)
		}
	})
}
