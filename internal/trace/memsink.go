package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MemorySink collects events in memory, one stream per rank. It is safe
// for concurrent emission from multiple ranks; each rank's stream has its
// own lock, so ranks do not contend with each other on the hot path.
//
// A rank's events are appended to a head, an []Event, until the head is
// full at headEvents events or more (646 events, by the append growth of
// a 152-byte element). Past that the rank has a tail. A tail event that
// is a local access with every other field zero and its position as its
// Seq, nearly every event of a long rank, is kept as a 24-byte access
// record; its (File, Func, Line) site is interned in one table all ranks
// share. Any other tail event is kept whole. Set builds a rank with a
// tail once, as one []Event of its exact length, so a long rank is never
// regrown and copied as 152-byte events (EXPERIMENTS.md, "Holding a long
// rank's events").
type MemorySink struct {
	// streams indexes the rank streams by rank, nil for ranks that have
	// not emitted. Emit reads the table through the atomic pointer
	// without locking; a rank's first event replaces the table under mu,
	// which also serializes Set, TakeSet and Reset with that growth.
	streams atomic.Pointer[[]*rankStream]
	mu      sync.Mutex
	sites   siteTable
}

// headEvents is the capacity past which a rank's head is full. Shorter
// ranks, every gen-mix rank and the median app-check job's, never leave
// the head, and a recycled sink reuses the head's capacity.
const headEvents = 512

type rankStream struct {
	mu   sync.Mutex
	head []Event
	tail *tail // nil until the head is full
	// built is TakeSet's assembly of a rank with a tail, kept across Reset
	// so that a recycled sink rebuilds into it.
	built []Event
}

// tail holds a rank's events past its full head.
type tail struct {
	recs  blocks[access] // one per tail event, in order
	whole blocks[Event]  // the events the zero records stand for, in order
	// cache holds recently used site ids in front of the sink's site
	// table, found by the data pointers of the site's strings and its line.
	cache [64]siteRef
}

// access is a tail's local access. It expands to the Event of kind kind
// with Addr addr and Size size at its site's File, Func and Line, with the
// stream's Rank, its position as Seq and every other field zero. The zero
// access, of no valid kind, stands for the next whole event.
type access struct {
	addr, size uint64
	site       uint32
	kind       Kind
}

type siteRef struct {
	file, fn string
	line     int32
	id       uint32
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink {
	return &MemorySink{}
}

// table returns the current stream table.
func (m *MemorySink) table() []*rankStream {
	if t := m.streams.Load(); t != nil {
		return *t
	}
	return nil
}

func (m *MemorySink) stream(rank int32) *rankStream {
	if t := m.table(); rank >= 0 && int(rank) < len(t) && t[rank] != nil {
		return t[rank]
	}
	return m.addStream(rank)
}

// addStream publishes a copy of the table that holds a new stream for
// rank, so the table always ends at the highest rank seen. A negative
// rank panics: no Set can hold it.
func (m *MemorySink) addStream(rank int32) *rankStream {
	if rank < 0 {
		panic(fmt.Sprintf("trace: MemorySink: event from negative rank %d", rank))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.table()
	if int(rank) < len(old) && old[rank] != nil {
		return old[rank] // added while this call waited for the lock
	}
	t := make([]*rankStream, max(len(old), int(rank)+1))
	copy(t, old)
	t[rank] = &rankStream{}
	m.streams.Store(&t)
	return t[rank]
}

// Emit implements Sink.
func (m *MemorySink) Emit(ev Event) {
	rs := m.stream(ev.Rank)
	rs.mu.Lock()
	if len(rs.head) < cap(rs.head) || cap(rs.head) < headEvents {
		rs.head = append(rs.head, ev)
	} else {
		rs.addTail(&ev, &m.sites)
	}
	rs.mu.Unlock()
}

// addTail appends ev to the tail, as an access record when expanding the
// record gives ev back exactly. An access without a File stays whole, so
// that an empty cache entry never matches.
func (rs *rankStream) addTail(ev *Event, sites *siteTable) {
	t := rs.tail
	if t == nil {
		t = new(tail)
		rs.tail = t
	}
	if ev.Kind.IsLocalAccess() && ev.File != "" && *ev == (Event{
		File: ev.File, Func: ev.Func, Line: ev.Line, Rank: ev.Rank,
		Seq: int64(len(rs.head) + t.recs.n), Addr: ev.Addr, Size: ev.Size, Kind: ev.Kind,
	}) {
		t.recs.add(access{addr: ev.Addr, size: ev.Size, site: t.site(ev, sites), kind: ev.Kind})
		return
	}
	t.recs.add(access{})
	t.whole.add(*ev)
}

// site returns the id of ev's site, from the cache when ev's strings are
// the ones last seen at its slot.
func (t *tail) site(ev *Event, sites *siteTable) uint32 {
	slot := uintptr(unsafe.Pointer(unsafe.StringData(ev.File)))>>3 + uintptr(ev.Line)
	c := &t.cache[slot%uintptr(len(t.cache))]
	if c.line == ev.Line && sameString(c.file, ev.File) && sameString(c.fn, ev.Func) {
		return c.id
	}
	id := sites.id(site{file: ev.File, fn: ev.Func, line: ev.Line})
	*c = siteRef{file: ev.File, fn: ev.Func, line: ev.Line, id: id}
	return id
}

// sameString reports whether a and b have the same data pointer and
// length, which makes them equal without comparing their bytes.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// appendEvents appends the rank's events to dst in order: the head, then
// the tail with each record expanded. rank is the stream's rank.
func (rs *rankStream) appendEvents(dst []Event, rank int32, sites []site) []Event {
	base := len(dst)
	dst = append(dst, rs.head...)
	var whole []Event // what is left of the current block of whole events
	next := 0         // the next block of whole events
	for _, blk := range rs.tail.recs.b {
		for i := range blk {
			a := &blk[i]
			if a.kind == KindInvalid {
				if len(whole) == 0 {
					whole = rs.tail.whole.b[next]
					next++
				}
				dst = append(dst, whole[0])
				whole = whole[1:]
				continue
			}
			s := &sites[a.site]
			dst = append(dst, Event{File: s.file, Func: s.fn, Line: s.line, Rank: rank,
				Seq: int64(len(dst) - base), Addr: a.addr, Size: a.size, Kind: a.kind})
		}
	}
	return dst
}

// Set returns the collected events and empties the sink. The returned
// Set covers ranks [0, n), where n is one past the highest rank seen (0
// for a sink that never saw an event). A rank that never left its head
// hands its slice over, not copied; a longer rank's slice is built here,
// at its exact length. The sink forgets both, so later emits start afresh
// and the returned Set stays valid for as long as the caller keeps it.
// Call Set once, after the run; a second call returns only the events
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
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.table()
	s := NewSet(len(t))
	for r, rs := range t {
		if rs == nil {
			continue
		}
		rs.mu.Lock()
		evs := rs.head
		if rs.tail != nil {
			n := len(rs.head) + rs.tail.recs.n
			var dst []Event
			if handOver {
				dst = make([]Event, 0, n)
			} else {
				if cap(rs.built) < n {
					rs.built = make([]Event, 0, n)
				}
				dst = rs.built[:0]
			}
			evs = rs.appendEvents(dst, int32(r), m.sites.all())
		}
		s.Traces[r].Events = evs
		if handOver {
			rs.head, rs.tail, rs.built = nil, nil, nil
		}
		rs.mu.Unlock()
	}
	return s
}

// Reset clears the sink for reuse, keeping each rank's head capacity and
// TakeSet's assembly buffer, so a recycled sink re-collects a comparable
// run without reallocating. Any Set previously obtained through TakeSet is
// invalidated.
func (m *MemorySink) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rs := range m.table() {
		if rs == nil {
			continue
		}
		rs.mu.Lock()
		rs.head, rs.tail = rs.head[:0], nil
		rs.mu.Unlock()
	}
}

// siteTable interns the sites of a sink's access records. An id indexes
// sites and is never reused, so a snapshot of sites stays valid for every
// id handed out before it was taken.
type siteTable struct {
	mu    sync.Mutex
	ids   map[site]uint32
	sites []site
}

type site struct {
	file, fn string
	line     int32
}

// id returns s's id, interning s on its first use.
func (st *siteTable) id(s site) uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	id, ok := st.ids[s]
	if !ok {
		if st.ids == nil {
			st.ids = make(map[site]uint32)
		}
		id = uint32(len(st.sites))
		st.ids[s] = id
		st.sites = append(st.sites, s)
	}
	return id
}

// all returns the sites interned so far.
func (st *siteTable) all() []site {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sites
}

// firstBlock is the length of a blocks sequence's first block.
const firstBlock = 64

// blocks is an append-only sequence kept in blocks that double in
// length, so that it is never copied as it grows.
type blocks[T any] struct {
	b [][]T
	n int // values added
}

func (bs *blocks[T]) add(v T) {
	last := len(bs.b) - 1
	if last < 0 || len(bs.b[last]) == cap(bs.b[last]) {
		size := firstBlock
		if last >= 0 {
			size = 2 * cap(bs.b[last])
		}
		bs.b = append(bs.b, make([]T, 0, size))
		last++
	}
	bs.b[last] = append(bs.b[last], v)
	bs.n++
}
