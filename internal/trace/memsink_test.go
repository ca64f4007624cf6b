package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// sinkSites are the sites of the sink tests' accesses. The first three
// share one File and Func string and differ only in line, the third by the
// size of the sink's site cache, so that it lands in the first's slot; the
// fifth has the first's File, Func and line, held in other memory.
var sinkSites = func() []site {
	file := "/src/app/lu.go"
	return []site{
		{file: file, fn: "app.update", line: 40},
		{file: file, fn: "app.update", line: 41},
		{file: file, fn: "app.update", line: 40 + int32(len(tail{}.cache))},
		{file: file, fn: "app.pivot", line: 77},
		{file: strings.Clone(file), fn: strings.Clone("app.update"), line: 40},
		{file: "/src/app/halo.go", fn: "app.exchange", line: 12},
	}
}()

// sinkEvent returns event pos of rank r, varied by k: a local access at
// one of sinkSites, or every seventh k a Put, as in an app-check trace.
func sinkEvent(r int32, pos int64, k int) Event {
	s := sinkSites[k%len(sinkSites)]
	ev := Event{Rank: r, Seq: pos, File: s.file, Func: s.fn, Line: s.line}
	switch {
	case k%7 == 0:
		ev.Kind, ev.Win, ev.Target = KindPut, 1, int32(k%4)
		ev.OriginAddr, ev.OriginType, ev.OriginCount = 0x2000+uint64(k)*32, TypeFloat64, 4
		ev.TargetDisp, ev.TargetType, ev.TargetCount = uint64(k%64), TypeFloat64, 4
	case k%3 == 0:
		ev.Kind, ev.Addr, ev.Size = KindStore, 0x1000+uint64(k)*8, 8
	default:
		ev.Kind, ev.Addr, ev.Size = KindLoad, 0x1000+uint64(k)*8, 8
	}
	return ev
}

// sinkShape turns ev into one of the shapes a sink must hand back
// exactly, picked by shape and varied by v. Shapes 1 to 5 are local
// accesses that must stay whole.
func sinkShape(ev Event, shape, v byte) Event {
	ev.Kind = KindLoad + Kind(v%2)
	ev.Addr, ev.Size = uint64(v)*8, 8
	switch shape % 10 {
	case 1: // a Def, even an empty one
		ev.Def = &Def{TypeID: int32(v % 3)}
	case 2: // one more field set
		switch x := int32(1 + v%5); v % 9 {
		case 0:
			ev.Win = x
		case 1:
			ev.Comm = x
		case 2:
			ev.Target = x
		case 3:
			ev.OriginAddr = uint64(x)
		case 4:
			ev.ResultCount = x
		case 5:
			ev.Lock = LockShared
		case 6:
			ev.AccOp = OpSum
		case 7:
			ev.Assert = x
		default:
			ev.TargetDisp = uint64(x)
		}
	case 3: // a Seq that is not the event's position
		ev.Seq += 1 + int64(v%4)
	case 4: // no File
		ev.File = ""
	case 5: // no site at all, like an empty cache slot
		ev.File, ev.Func, ev.Line = "", "", 0
	case 6: // no Func, which an access record can hold
		ev.Func = ""
	case 7: // the zero address and size
		ev.Addr, ev.Size = 0, 0
	case 8: // a definition event
		ev = Event{Kind: KindTypeCreate, Rank: ev.Rank, Seq: ev.Seq, File: ev.File, Line: ev.Line,
			Def: &Def{TypeID: TypeUserBase + int32(v)}}
	case 9: // an event of no valid kind
		ev.Kind = KindInvalid
	}
	return ev
}

// sinkStreams builds per-rank event streams from data, three bytes to a
// run of events on one rank. The first byte picks the rank and the run's
// length, up to 681 events, so that two or three runs take a rank past
// its head; the second and third pick the shape of the run's first event
// (sinkShape). The run's other events are sinkEvent's mix.
func sinkStreams(data []byte, ranks int) [][]Event {
	out := make([][]Event, ranks)
	for ; len(data) >= 3; data = data[3:] {
		r := int(data[0]) % ranks
		n := 1 + int(data[0])/ranks*8
		for i := 0; i < n; i++ {
			pos := int64(len(out[r]))
			ev := sinkEvent(int32(r), pos, int(data[2])+i)
			if i == 0 {
				ev = sinkShape(ev, data[1], data[2])
			}
			out[r] = append(out[r], ev)
		}
	}
	return out
}

// emitStreams emits each rank's stream into sink, every rank from its own
// goroutine when concurrent is set.
func emitStreams(sink *MemorySink, streams [][]Event, concurrent bool) {
	var wg sync.WaitGroup
	for _, evs := range streams {
		if !concurrent {
			for _, ev := range evs {
				sink.Emit(ev)
			}
			continue
		}
		wg.Add(1)
		go func(evs []Event) {
			defer wg.Done()
			for _, ev := range evs {
				sink.Emit(ev)
			}
		}(evs)
	}
	wg.Wait()
}

// checkSinkSet fails t unless set holds exactly streams, rank for rank
// and event for event, with every rank past the last stream empty.
func checkSinkSet(t *testing.T, what string, set *Set, streams [][]Event) {
	t.Helper()
	for r, evs := range streams {
		if len(evs) > 0 && r >= set.Ranks() {
			t.Fatalf("%s: %d ranks, but rank %d emitted %d events", what, set.Ranks(), r, len(evs))
		}
	}
	for r, tr := range set.Traces {
		var want []Event
		if r < len(streams) {
			want = streams[r]
		}
		if tr.Rank != int32(r) || len(tr.Events) != len(want) {
			t.Fatalf("%s: trace %d is rank %d with %d events, want %d", what, r, tr.Rank, len(tr.Events), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(tr.Events[i], want[i]) {
				t.Fatalf("%s: rank %d event %d\n got %+v\nwant %+v", what, r, i, tr.Events[i], want[i])
			}
		}
	}
}

// checkSinkRoundTrip emits the streams data builds, from one goroutine and
// from one per rank, and checks that Set, and TakeSet before and after a
// Reset, return exactly what was emitted.
func checkSinkRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	const ranks = 3
	first := sinkStreams(data, ranks)
	rotated := append(append([]byte(nil), data[min(3, len(data)):]...), data[:min(3, len(data))]...)
	second := sinkStreams(rotated, ranks)
	for _, concurrent := range []bool{false, true} {
		sink := NewMemorySink()
		emitStreams(sink, first, concurrent)
		checkSinkSet(t, "Set", sink.Set(), first)
		if s := sink.Set(); s.TotalEvents() != 0 {
			t.Fatalf("second Set: %d events, want 0", s.TotalEvents())
		}

		sink = NewMemorySink()
		emitStreams(sink, first, concurrent)
		checkSinkSet(t, "TakeSet", sink.TakeSet(), first)
		checkSinkSet(t, "TakeSet again", sink.TakeSet(), first)
		sink.Reset()
		emitStreams(sink, second, concurrent)
		checkSinkSet(t, "TakeSet after Reset", sink.TakeSet(), second)
		checkSinkSet(t, "Set after Reset", sink.Set(), second)
	}
}

// TestMemorySinkMatchesEmitted: for random multi-rank streams, and for
// ranks that end below, at and just past the head, every way out of the
// sink returns exactly the events emitted, whichever of them it keeps as
// access records.
func TestMemorySinkMatchesEmitted(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 40; i++ {
		data := make([]byte, 3*(1+rng.Intn(16)))
		rng.Read(data)
		checkSinkRoundTrip(t, data)
	}

	// The head is full at its first capacity of headEvents or more (646
	// events); rank 0 stops just before it, at it and just past it, with
	// each shape around the boundary.
	var head []Event
	for len(head) < cap(head) || cap(head) < headEvents {
		head = append(head, Event{})
	}
	headFull := len(head)
	for _, n := range []int{headFull - 1, headFull, headFull + 1, headFull + 20, 3000} {
		for shape := byte(0); shape < 10; shape++ {
			evs := make([]Event, n)
			for i := range evs {
				evs[i] = sinkEvent(0, int64(i), i)
				if i >= headFull-2 && i < headFull+2 || i == n-1 {
					evs[i] = sinkShape(evs[i], shape, byte(i))
				}
			}
			sink := NewMemorySink()
			emitStreams(sink, [][]Event{evs}, false)
			checkSinkSet(t, fmt.Sprintf("%d events, shape %d", n, shape), sink.Set(), [][]Event{evs})
		}
	}
}

// FuzzMemorySink: whatever multi-rank streams a sink is given, Set and
// TakeSet return them exactly.
func FuzzMemorySink(f *testing.F) {
	f.Add([]byte{255, 0, 1, 255, 2, 3, 255, 3, 4, 254, 4, 5, 253, 6, 7})
	f.Add([]byte{9, 1, 0, 200, 8, 2, 201, 9, 3, 202, 5, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*24 {
			data = data[:3*24]
		}
		checkSinkRoundTrip(t, data)
	})
}

// TestMemorySinkAllocCeiling: emitting 9,000 local accesses into one rank
// and taking the Set allocates at most 1.6 times that rank's exact
// []Event. One slice grown by append allocated about 4.7 times.
func TestMemorySinkAllocCeiling(t *testing.T) {
	const n = 9000
	evs := make([]Event, n)
	for i := range evs {
		s := sinkSites[i%len(sinkSites)]
		evs[i] = Event{Kind: KindStore, Seq: int64(i), File: s.file, Func: s.fn, Line: s.line,
			Addr: uint64(i) * 8, Size: 8}
	}
	exact := float64(n * unsafe.Sizeof(Event{}))
	least := math.Inf(1)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sink := NewMemorySink()
		for i := range evs {
			sink.Emit(evs[i])
		}
		set := sink.Set()
		runtime.ReadMemStats(&after)
		if len(set.Traces[0].Events) != n {
			t.Fatalf("Set holds %d events, want %d", len(set.Traces[0].Events), n)
		}
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
	}
	t.Logf("%.0f bytes allocated for a %.0f-byte rank (%.2f×)", least, exact, least/exact)
	if least > 1.6*exact {
		t.Errorf("%.0f bytes allocated for a %.0f-byte rank (%.2f×), over the ceiling of 1.6×",
			least, exact, least/exact)
	}
}

var benchSinkSet *Set

// BenchmarkMemorySink emits 4 ranks of n events each, 6 in 7 of them
// local accesses (about the app-check mix), and takes the Set: the
// profiler's cost of holding its events, per event, for ranks that stay
// in the head (300, and 600, about Boltzmann's ranks) and for ranks held
// mostly as access records (9,000, about LU's).
func BenchmarkMemorySink(b *testing.B) {
	const ranks = 4
	for _, n := range []int{300, 600, 9000} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			streams := make([][]Event, ranks)
			for r := range streams {
				for i := 0; i < n; i++ {
					streams[r] = append(streams[r], sinkEvent(int32(r), int64(i), i))
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink := NewMemorySink()
				emitStreams(sink, streams, false)
				benchSinkSet = sink.Set()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			events := float64(b.N * ranks * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
		})
	}
}
