package trace

import (
	"fmt"
	"sync/atomic"
)

// Trace is the ordered event stream of one rank.
type Trace struct {
	Rank   int32
	Events []Event
}

// Set holds the traces of all ranks of one run, indexed by world rank.
type Set struct {
	Traces []*Trace
}

// NewSet creates a Set with n empty per-rank traces.
func NewSet(n int) *Set {
	s := &Set{Traces: make([]*Trace, n)}
	for i := range s.Traces {
		s.Traces[i] = &Trace{Rank: int32(i)}
	}
	return s
}

// Ranks returns the number of ranks in the set.
func (s *Set) Ranks() int { return len(s.Traces) }

// TotalEvents returns the number of events across all ranks.
func (s *Set) TotalEvents() int {
	n := 0
	for _, t := range s.Traces {
		n += len(t.Events)
	}
	return n
}

// Get returns the event identified by id. It panics on out-of-range ids;
// the analyzer only ever constructs ids from events it has read.
func (s *Set) Get(id ID) *Event {
	return &s.Traces[id.Rank].Events[id.Seq]
}

// Validate checks the per-rank sequence invariants: ranks labelled
// correctly and Seq dense from zero. Readers call it after loading. The
// error reported is that of the lowest failing rank.
func (s *Set) Validate() error {
	for r := range s.Traces {
		if err := s.validateRank(r); err != nil {
			return err
		}
	}
	return nil
}

func (s *Set) validateRank(r int) error {
	if err := s.validateLabel(r); err != nil {
		return err
	}
	t := s.Traces[r]
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.Rank != int32(r) {
			return fmt.Errorf("trace: rank %d event %d labelled rank %d", r, i, ev.Rank)
		}
		if ev.Seq != int64(i) {
			return fmt.Errorf("trace: rank %d event %d has seq %d", r, i, ev.Seq)
		}
		if ev.Kind == KindInvalid || ev.Kind >= kindMax {
			return fmt.Errorf("trace: rank %d event %d has invalid kind %d", r, i, ev.Kind)
		}
	}
	return nil
}

// validateLabel checks that index r holds a trace labelled rank r, without
// looking at its events.
func (s *Set) validateLabel(r int) error {
	t := s.Traces[r]
	if t == nil {
		return fmt.Errorf("trace: missing trace for rank %d", r)
	}
	if t.Rank != int32(r) {
		return fmt.Errorf("trace: trace at index %d labelled rank %d", r, t.Rank)
	}
	return nil
}

// Sink consumes events as the profiler emits them.
type Sink interface {
	// Emit records one event. The profiler assigns Rank and Seq before
	// emitting. Emit is called from the rank's own goroutine; a Sink shared
	// across ranks must be safe for concurrent use.
	Emit(ev Event)
}

// CountingSink wraps another sink and tallies events by class with atomic
// counters (no lock contention on the hot path); it backs the event-rate
// measurements of Figure 10.
type CountingSink struct {
	inner Sink // may be nil to count without storing

	loadStore atomic.Int64
	rmaComm   atomic.Int64
	rmaSync   atomic.Int64
	p2p       atomic.Int64
	collect   atomic.Int64
	other     atomic.Int64
}

// Stats tallies emitted events by class.
type Stats struct {
	LoadStore int64 // KindLoad + KindStore
	RMAComm   int64
	RMASync   int64
	P2P       int64
	Collect   int64
	Other     int64
}

// Total returns the total event count.
func (st Stats) Total() int64 {
	return st.LoadStore + st.RMAComm + st.RMASync + st.P2P + st.Collect + st.Other
}

// MPIEvents returns all MPI function-level events (everything that is not a
// local load/store).
func (st Stats) MPIEvents() int64 { return st.Total() - st.LoadStore }

// NewCountingSink wraps inner (which may be nil).
func NewCountingSink(inner Sink) *CountingSink {
	return &CountingSink{inner: inner}
}

// Emit implements Sink.
func (c *CountingSink) Emit(ev Event) {
	switch {
	case ev.Kind.IsLocalAccess():
		c.loadStore.Add(1)
	case ev.Kind.IsRMAComm():
		c.rmaComm.Add(1)
	case ev.Kind.IsRMASync():
		c.rmaSync.Add(1)
	case ev.Kind.IsP2P() || ev.Kind == KindWaitReq:
		c.p2p.Add(1)
	case ev.Kind.IsCollective():
		c.collect.Add(1)
	default:
		c.other.Add(1)
	}
	if c.inner != nil {
		c.inner.Emit(ev)
	}
}

// Stats returns a snapshot of the tallies.
func (c *CountingSink) Stats() Stats {
	return Stats{
		LoadStore: c.loadStore.Load(),
		RMAComm:   c.rmaComm.Load(),
		RMASync:   c.rmaSync.Load(),
		P2P:       c.p2p.Load(),
		Collect:   c.collect.Load(),
		Other:     c.other.Load(),
	}
}
