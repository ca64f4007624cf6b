package trace

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(3)
	if s.Ranks() != 3 || s.TotalEvents() != 0 {
		t.Fatalf("fresh set: ranks=%d events=%d", s.Ranks(), s.TotalEvents())
	}
	s.Traces[1].Events = append(s.Traces[1].Events, Event{Kind: KindBarrier, Rank: 1, Seq: 0})
	if s.TotalEvents() != 1 {
		t.Error("TotalEvents wrong")
	}
	ev := s.Get(ID{Rank: 1, Seq: 0})
	if ev.Kind != KindBarrier {
		t.Error("Get returned wrong event")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSetValidateCatchesCorruption(t *testing.T) {
	s := NewSet(2)
	s.Traces[0].Events = []Event{{Kind: KindBarrier, Rank: 0, Seq: 1}} // bad seq
	if s.Validate() == nil {
		t.Error("expected seq error")
	}
	s = NewSet(2)
	s.Traces[0].Events = []Event{{Kind: KindBarrier, Rank: 1, Seq: 0}} // bad rank
	if s.Validate() == nil {
		t.Error("expected rank error")
	}
	s = NewSet(1)
	s.Traces[0].Events = []Event{{Kind: KindInvalid, Rank: 0, Seq: 0}}
	if s.Validate() == nil {
		t.Error("expected kind error")
	}
}

// TestMemorySinkConcurrent: ranks that start emitting at once, highest
// first and with gaps, each keep their stream in order; Set covers ranks
// up to the highest seen, with empty traces for silent ranks.
func TestMemorySinkConcurrent(t *testing.T) {
	sink := NewMemorySink()
	var wg sync.WaitGroup
	const ranks, per = 64, 100
	for r := int32(ranks - 1); r >= 0; r -= 3 { // 63, 60, ..., 0
		wg.Add(1)
		go func(r int32) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sink.Emit(Event{Kind: KindLoad, Rank: r, Seq: int64(i), Addr: uint64(i)})
			}
		}(r)
	}
	wg.Wait()
	s := sink.Set()
	if s.Ranks() != ranks || s.TotalEvents() != (ranks+2)/3*per {
		t.Fatalf("ranks=%d events=%d", s.Ranks(), s.TotalEvents())
	}
	for r, tr := range s.Traces {
		want := 0
		if (ranks-1-r)%3 == 0 {
			want = per
		}
		if len(tr.Events) != want {
			t.Fatalf("rank %d: %d events, want %d", r, len(tr.Events), want)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-rank order preserved.
	for i, ev := range s.Traces[3].Events {
		if ev.Addr != uint64(i) {
			t.Fatalf("rank 3 event %d addr=%d", i, ev.Addr)
		}
	}
}

// TestMemorySinkSetHandsOver: Set returns what was emitted since the last
// Set and empties the sink, and a handed-over Set is not disturbed by
// later emits.
func TestMemorySinkSetHandsOver(t *testing.T) {
	if s := NewMemorySink().Set(); s.Ranks() != 0 || s.TotalEvents() != 0 {
		t.Fatalf("empty sink: ranks=%d events=%d", s.Ranks(), s.TotalEvents())
	}
	sink := NewMemorySink()
	for i := 0; i < 3; i++ {
		sink.Emit(Event{Kind: KindLoad, Rank: 0, Seq: int64(i), Addr: uint64(i)})
	}
	first := sink.Set()
	if n := first.TotalEvents(); n != 3 {
		t.Fatalf("first Set: %d events, want 3", n)
	}
	for i := 0; i < 2; i++ {
		sink.Emit(Event{Kind: KindStore, Rank: 0, Seq: int64(i), Addr: uint64(100 + i)})
	}
	second := sink.Set()
	if n := second.TotalEvents(); n != 2 {
		t.Fatalf("second Set: %d events, want only the 2 emitted since the first", n)
	}
	for i, ev := range first.Traces[0].Events {
		if ev.Kind != KindLoad || ev.Addr != uint64(i) {
			t.Fatalf("first Set's event %d changed to %+v after later emits", i, ev)
		}
	}
	if n := sink.Set().TotalEvents(); n != 0 {
		t.Fatalf("Set on an emptied sink: %d events, want 0", n)
	}
}

func TestCountingSink(t *testing.T) {
	c := NewCountingSink(nil)
	for _, k := range []Kind{KindLoad, KindStore, KindPut, KindWinFence, KindSend, KindBarrier, KindTypeCreate, KindWaitReq} {
		c.Emit(Event{Kind: k})
	}
	st := c.Stats()
	if st.LoadStore != 2 || st.RMAComm != 1 || st.RMASync != 1 || st.P2P != 2 || st.Collect != 1 || st.Other != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Total() != 8 || st.MPIEvents() != 6 {
		t.Errorf("totals: %d %d", st.Total(), st.MPIEvents())
	}
	// Wrapping another sink forwards events.
	mem := NewMemorySink()
	c2 := NewCountingSink(mem)
	c2.Emit(Event{Kind: KindBarrier, Rank: 0, Seq: 0})
	if mem.Set().TotalEvents() != 1 {
		t.Error("inner sink did not receive event")
	}
}

func TestWriteReadDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	rng := rand.New(rand.NewSource(2))
	s := NewSet(4)
	for r := range s.Traces {
		s.Traces[r].Events = sampleEvents(int32(r), 50, rng)
	}
	if err := WriteDir(dir, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks() != 4 || got.TotalEvents() != 200 {
		t.Fatalf("ranks=%d events=%d", got.Ranks(), got.TotalEvents())
	}
	for r := range s.Traces {
		for i := range s.Traces[r].Events {
			if !reflect.DeepEqual(normalize(s.Traces[r].Events[i]), normalize(got.Traces[r].Events[i])) {
				t.Fatalf("rank %d event %d differs", r, i)
			}
		}
	}
}

func TestReadDirEmpty(t *testing.T) {
	if _, err := ReadDir(t.TempDir()); err == nil {
		t.Error("empty dir must error")
	}
}
