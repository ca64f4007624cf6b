package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Trace is the ordered event stream of one rank.
type Trace struct {
	Rank   int32
	Events []Event
}

// Len returns the number of events in the trace.
func (t *Trace) Len() int { return len(t.Events) }

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
	t := s.Traces[r]
	if t == nil {
		return fmt.Errorf("trace: missing trace for rank %d", r)
	}
	if t.Rank != int32(r) {
		return fmt.Errorf("trace: trace at index %d labelled rank %d", r, t.Rank)
	}
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

// Sink consumes events as the profiler emits them.
type Sink interface {
	// Emit records one event. The profiler assigns Rank and Seq before
	// emitting. Emit is called from the rank's own goroutine; a Sink shared
	// across ranks must be safe for concurrent use.
	Emit(ev Event)
}

// MemorySink collects events in memory, one stream per rank. It is safe
// for concurrent emission from multiple ranks; each rank's stream has its
// own lock, so ranks do not contend with each other on the hot path.
type MemorySink struct {
	mu     sync.RWMutex // guards the byRank map structure
	byRank map[int32]*rankStream
}

type rankStream struct {
	mu  sync.Mutex
	evs []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink {
	return &MemorySink{byRank: make(map[int32]*rankStream)}
}

func (m *MemorySink) stream(rank int32) *rankStream {
	m.mu.RLock()
	rs, ok := m.byRank[rank]
	m.mu.RUnlock()
	if ok {
		return rs
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rs, ok = m.byRank[rank]; ok {
		return rs
	}
	rs = &rankStream{}
	m.byRank[rank] = rs
	return rs
}

// Emit implements Sink.
func (m *MemorySink) Emit(ev Event) {
	rs := m.stream(ev.Rank)
	rs.mu.Lock()
	rs.evs = append(rs.evs, ev)
	rs.mu.Unlock()
}

// Set returns the collected events and empties the sink. The returned
// Set covers ranks [0, n), where n is one past the highest rank seen (0
// for a sink that never saw an event). Each rank's event slice is handed
// over, not copied: the sink forgets it, so later emits start a fresh
// slice and the returned Set stays valid for as long as the caller keeps
// it. Call Set once, after the run; a second call returns only the events
// emitted since the first.
func (m *MemorySink) Set() *Set {
	return m.assemble(true)
}

// TakeSet returns the collected events without emptying the sink: the
// returned Set's per-rank event slices alias the sink's buffers. It exists
// for run-recycling callers (internal/explore) that analyze the set, keep
// only value copies of events out of it, and then Reset the sink for the
// next run, which reuses the buffers and so invalidates the aliased
// slices. Use Set when the result must outlive the sink.
func (m *MemorySink) TakeSet() *Set {
	return m.assemble(false)
}

func (m *MemorySink) assemble(handOver bool) *Set {
	m.mu.RLock()
	defer m.mu.RUnlock()
	maxRank := int32(-1)
	for r := range m.byRank {
		if r > maxRank {
			maxRank = r
		}
	}
	s := NewSet(int(maxRank + 1))
	for r, rs := range m.byRank {
		rs.mu.Lock()
		s.Traces[r].Events = rs.evs
		if handOver {
			rs.evs = nil
		}
		rs.mu.Unlock()
	}
	return s
}

// Reset clears the sink for reuse, keeping the per-rank buffers' capacity
// so a recycled sink re-collects a comparable run without reallocating.
// Any Set previously obtained through TakeSet is invalidated.
func (m *MemorySink) Reset() {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, rs := range m.byRank {
		rs.mu.Lock()
		rs.evs = rs.evs[:0]
		rs.mu.Unlock()
	}
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

// Merge combines per-rank partial sets (e.g. loaded from separate files)
// into one Set. Ranks must not repeat across parts.
func Merge(parts ...*Trace) (*Set, error) {
	maxRank := int32(-1)
	for _, p := range parts {
		if p.Rank > maxRank {
			maxRank = p.Rank
		}
	}
	s := &Set{Traces: make([]*Trace, maxRank+1)}
	for _, p := range parts {
		if s.Traces[p.Rank] != nil {
			return nil, fmt.Errorf("trace: duplicate trace for rank %d", p.Rank)
		}
		s.Traces[p.Rank] = p
	}
	for r, t := range s.Traces {
		if t == nil {
			return nil, fmt.Errorf("trace: missing trace for rank %d", r)
		}
	}
	return s, s.Validate()
}

// SortedKinds returns the distinct event kinds present in the set, sorted;
// useful in tests and reports.
func (s *Set) SortedKinds() []Kind {
	seen := map[Kind]bool{}
	for _, t := range s.Traces {
		for i := range t.Events {
			seen[t.Events[i].Kind] = true
		}
	}
	out := make([]Kind, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
