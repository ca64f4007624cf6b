package trace

import (
	"testing"

	"repro/internal/obs"
)

func obsRoundTripSet() *Set {
	s := NewMemorySink()
	for rank := int32(0); rank < 2; rank++ {
		s.Emit(Event{Kind: KindWinCreate, Rank: rank, Seq: 0, Win: 1})
		s.Emit(Event{Kind: KindStore, Rank: rank, Seq: 1, Addr: 64, Size: 8,
			File: "app.go", Line: 10, Func: "app.body"})
		s.Emit(Event{Kind: KindWinFree, Rank: rank, Seq: 2, Win: 1})
	}
	return s.Set()
}

func TestWriteDirObsReadDirWithCounters(t *testing.T) {
	set := obsRoundTripSet()
	dir := t.TempDir()

	wreg := obs.NewRegistry()
	if err := WriteDirObs(dir, set, wreg); err != nil {
		t.Fatal(err)
	}
	wsnap := wreg.Snapshot()
	events := int64(set.TotalEvents())
	if got := wsnap.CounterValue("mcchecker_trace_encoded_events_total"); got != events {
		t.Errorf("encoded events = %d, want %d", got, events)
	}
	encBytes := wsnap.CounterValue("mcchecker_trace_encoded_bytes_total")
	if encBytes <= 0 {
		t.Errorf("encoded bytes = %d, want > 0", encBytes)
	}

	rreg := obs.NewRegistry()
	got, err := ReadDirWith(dir, obs.Scope{Obs: rreg})
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEvents() != set.TotalEvents() {
		t.Fatalf("round trip lost events: %d != %d", got.TotalEvents(), set.TotalEvents())
	}
	rsnap := rreg.Snapshot()
	if n := rsnap.CounterValue("mcchecker_trace_decoded_events_total"); n != events {
		t.Errorf("decoded events = %d, want %d", n, events)
	}
	decBytes := rsnap.CounterValue("mcchecker_trace_decoded_bytes_total")
	if decBytes != encBytes {
		t.Errorf("decoded bytes = %d, encoded bytes = %d; should match", decBytes, encBytes)
	}
}

func TestReadDirWithZeroScope(t *testing.T) {
	set := obsRoundTripSet()
	dir := t.TempDir()
	if err := WriteDirObs(dir, set, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDirWith(dir, obs.Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEvents() != set.TotalEvents() {
		t.Errorf("zero-scope round trip lost events: %d != %d", got.TotalEvents(), set.TotalEvents())
	}
}
