// Package shadow implements the shadow-memory access store behind the
// fast cross-process detection engine (FastTrack, Flanagan & Freund,
// PLDI 2009, adapted to MC-Checker's epoch model). Instead of matching
// every pair of one-sided operations in a (window, target) vector, the
// detector inserts each access into an interval-keyed shadow map and
// asks the map for exactly the stored accesses that can still conflict:
//
//   - the byte ranges of a vector are partitioned into shadow cells;
//     every member's footprint is split across the cells it covers, so a
//     cell interval is a subset of each of its members' footprints and
//     any overlap between a query and a cell implies overlap with every
//     member in it — overlap filtering costs one sorted-slice walk
//     instead of a full vector scan;
//   - within a cell, members are grouped per (origin rank, operation
//     class). A group either matches or is skipped wholesale (same-rank
//     pairs, compatibility-matrix BOTH cells), the analogue of
//     FastTrack's same-epoch fast path; a group holds a single inlined
//     access (the common case — FastTrack's one-epoch summary) and
//     spills to an ordered access list only on sharing (the read-share
//     vector fallback);
//   - each access carries the vector clock of its DAG segment. Along one
//     rank's program order those clocks are elementwise monotone
//     non-decreasing, so the members of a group that are concurrent with
//     a query form one contiguous range found by two binary searches —
//     no per-member happens-before calls;
//   - sites are interned in a Depot (see depot.go) so a member stays a
//     few words and per-site work is done once.
//
// The store knows nothing about MPI semantics: the caller classifies
// groups (skip / overlap-filtered / unconditional) and receives matches
// as opaque payloads, in exactly the insertion order a pairwise scan of
// the vector would have visited them — which is what lets the driving
// detector reproduce the pairwise engine's reports byte for byte.
package shadow

import (
	"slices"
	"sort"

	"repro/internal/memory"
)

// VectorKey names one access vector: a window and the world rank whose
// memory the stored operations target.
type VectorKey struct {
	Win    int32
	Target int32
}

// Access describes one operation inserted into the store.
type Access struct {
	// Payload is an opaque caller value (typically an index into a
	// caller-side slice of rich per-operation state) handed back on match.
	Payload int32
	// Rank is the origin rank of the access; groups never mix ranks.
	Rank int32
	// Class is a caller-interned operation class; all skip/match
	// decisions the caller makes in a Query classify callback must be a
	// pure function of (Rank, Class) plus the query itself.
	Class int32
	// Site is the access's interned site (informational; kept on the
	// member so callers can render operands without re-interning).
	Site SiteID
	// Seq is the event sequence number within the origin rank.
	Seq int64
	// Clock is the vector clock of the access's DAG segment, read-only.
	// Successive inserts from one rank must carry elementwise monotone
	// non-decreasing clocks (true of segment clocks along program order).
	Clock []int64
	// Target is the access's byte footprint: ascending, disjoint
	// intervals. May be empty; the member is then reachable only through
	// ModeAll group matches, never through overlap filtering.
	Target []memory.Interval
}

// Query describes the probing operation of a Query call.
type Query struct {
	Rank  int32
	Seq   int64
	Clock []int64 // segment clock of the query event, read-only
}

// Mode is a caller's verdict on one (rank, class) group for one query.
type Mode uint8

const (
	// ModeSkip: no member of the group can conflict (same rank, or the
	// compatibility matrix permits the combination outright).
	ModeSkip Mode = iota
	// ModeOverlap: members conflict when concurrent and byte-overlapping
	// the query footprint.
	ModeOverlap
	// ModeAll: every concurrent member conflicts, overlap or not (the
	// MPI-2.2 local-store rule).
	ModeAll
)

type member struct {
	payload int32
	site    SiteID
	seq     int64
	clock   []int64
	target  []memory.Interval
	stamp   uint64
}

type group struct {
	rank  int32
	class int32
	all   []int32 // arena indexes, ascending seq (same rank throughout)

	// Per-query classification cache: classify runs once per group per
	// Query call, however many cells the group appears in.
	qstamp uint64
	qmode  Mode
}

// cellGroup is one group's slice of a cell. The single-member case is
// inlined (solo) — FastTrack's one-epoch summary — and spills to an
// index list only when a second member of the same (rank, class) lands
// on the same bytes.
type cellGroup struct {
	g    *group
	solo int32
	idxs []int32 // nil while the group has one member in this cell
}

func (cg *cellGroup) size() int {
	if cg.idxs == nil {
		return 1
	}
	return len(cg.idxs)
}

func (cg *cellGroup) at(i int) int32 {
	if cg.idxs == nil {
		return cg.solo
	}
	return cg.idxs[i]
}

func (cg *cellGroup) add(id int32) {
	if cg.idxs == nil {
		cg.idxs = append(make([]int32, 0, 4), cg.solo, id)
		return
	}
	cg.idxs = append(cg.idxs, id)
}

// cell is one byte interval [lo, hi) of a vector with the members whose
// footprints cover it, partitioned by group.
type cell struct {
	lo, hi  uint64
	entries []cellGroup
}

func (c *cell) add(g *group, id int32) {
	for i := range c.entries {
		if c.entries[i].g == g {
			c.entries[i].add(id)
			return
		}
	}
	c.entries = append(c.entries, cellGroup{g: g, solo: id})
}

// cloneEntries deep-copies a cell's group slices for a split: the index
// lists share backing arrays capped at their current length, so a later
// append to either half reallocates instead of clobbering the other.
func cloneEntries(es []cellGroup) []cellGroup {
	out := make([]cellGroup, len(es))
	for i, e := range es {
		e.idxs = e.idxs[:len(e.idxs):len(e.idxs)]
		out[i] = e
	}
	return out
}

type groupKey struct {
	rank  int32
	class int32
}

type vector struct {
	cells  []cell // sorted by lo, pairwise disjoint
	groups []*group
	gindex map[groupKey]*group
}

func (v *vector) group(rank, class int32) *group {
	k := groupKey{rank: rank, class: class}
	if g, ok := v.gindex[k]; ok {
		return g
	}
	var g *group
	if n := len(v.groups); n < cap(v.groups) && v.groups[:n+1][n] != nil {
		// Reuse a group retired by Reset.
		g = v.groups[:n+1][n]
		*g = group{rank: rank, class: class, all: g.all[:0]}
		v.groups = v.groups[:n+1]
	} else {
		g = &group{rank: rank, class: class}
		v.groups = append(v.groups, g)
	}
	v.gindex[k] = g
	return g
}

// reset empties the vector, keeping its cell and group allocations.
func (v *vector) reset() {
	clear(v.cells)
	v.cells = v.cells[:0]
	v.groups = v.groups[:0]
	clear(v.gindex)
}

func (v *vector) insertCell(i int, c cell) {
	v.cells = append(v.cells, cell{})
	copy(v.cells[i+1:], v.cells[i:])
	v.cells[i] = c
}

// cover registers member id of group g over interval iv: boundary cells
// are split so the covered cells tile iv exactly, gaps get fresh cells,
// and the member is appended to every covered cell.
func (v *vector) cover(iv memory.Interval, g *group, id int32) {
	lo := iv.Lo
	if lo >= iv.Hi {
		return
	}
	i := sort.Search(len(v.cells), func(i int) bool { return v.cells[i].hi > lo })
	for lo < iv.Hi {
		if i == len(v.cells) || v.cells[i].lo >= iv.Hi {
			// No existing cell before iv.Hi: one fresh cell for the rest.
			v.insertCell(i, cell{lo: lo, hi: iv.Hi, entries: []cellGroup{{g: g, solo: id}}})
			return
		}
		c := &v.cells[i]
		if c.lo > lo {
			// Gap before the next cell.
			v.insertCell(i, cell{lo: lo, hi: c.lo, entries: []cellGroup{{g: g, solo: id}}})
			i++
			lo = v.cells[i].lo
			continue
		}
		if c.lo < lo {
			// Split off the uncovered left part [c.lo, lo).
			left := cell{lo: c.lo, hi: lo, entries: c.entries}
			right := cell{lo: lo, hi: c.hi, entries: cloneEntries(c.entries)}
			v.cells[i] = left
			v.insertCell(i+1, right)
			i++
			continue
		}
		// c.lo == lo.
		if c.hi > iv.Hi {
			// Split off the uncovered right part [iv.Hi, c.hi).
			left := cell{lo: c.lo, hi: iv.Hi, entries: cloneEntries(c.entries)}
			right := cell{lo: iv.Hi, hi: c.hi, entries: c.entries}
			v.cells[i] = left
			v.insertCell(i+1, right)
			c = &v.cells[i]
		}
		// Cell is now a subset of iv.
		c.add(g, id)
		lo = c.hi
		i++
	}
}

// Store is the shadow map of one concurrent region: every vector's cell
// partition plus a shared member arena. Not safe for concurrent use. The
// detector keeps one store per analysis (or per worker) and calls Reset
// between regions, so the arena, query scratch and vector slices are
// allocated once and reused.
type Store struct {
	depot   *Depot
	vectors map[VectorKey]*vector
	arena   []member
	scratch []int32
	qstamp  uint64
}

// NewStore returns an empty store. depot may be nil when the caller does
// its own site bookkeeping.
func NewStore(depot *Depot) *Store {
	return &Store{depot: depot, vectors: make(map[VectorKey]*vector)}
}

// Reset empties the store, keeping its allocations for the next region:
// the member arena, the query scratch, and each vector with its cell and
// group slices. Members inserted before Reset are never emitted again.
func (s *Store) Reset() {
	clear(s.arena) // drop the footprint and clock references
	s.arena = s.arena[:0]
	for _, v := range s.vectors {
		v.reset()
	}
}

// Depot returns the depot the store was built with (may be nil).
func (s *Store) Depot() *Depot { return s.depot }

// Members returns the total number of inserted accesses.
func (s *Store) Members() int { return len(s.arena) }

// Cells returns the number of shadow cells of one vector.
func (s *Store) Cells(key VectorKey) int {
	if v := s.vectors[key]; v != nil {
		return len(v.cells)
	}
	return 0
}

// Groups returns the number of (rank, class) groups of one vector.
func (s *Store) Groups(key VectorKey) int {
	if v := s.vectors[key]; v != nil {
		return len(v.groups)
	}
	return 0
}

// Insert adds an access to a vector, splitting shadow cells as needed.
// Accesses must be inserted in the global order the pairwise detector
// would have scanned them (rank-major, ascending seq within a rank):
// Query reproduces exactly that order on match.
func (s *Store) Insert(key VectorKey, a Access) {
	v := s.vectors[key]
	if v == nil {
		v = &vector{gindex: make(map[groupKey]*group)}
		s.vectors[key] = v
	}
	g := v.group(a.Rank, a.Class)
	id := int32(len(s.arena))
	s.arena = append(s.arena, member{
		payload: a.Payload, site: a.Site, seq: a.Seq, clock: a.Clock, target: a.Target,
	})
	g.all = append(g.all, id)
	for _, iv := range a.Target {
		v.cover(iv, g, id)
	}
}

// concurrentRange returns the half-open index range of list whose
// members are concurrent with q. list holds arena indexes of one rank's
// accesses in ascending seq order; rank is that origin rank. A member m
// is concurrent iff neither happens-before holds:
//
//	m before q  ⇔  q.Clock[rank] >= m.seq   — fails on a suffix of list;
//	q before m  ⇔  m.clock[q.Rank] >= q.Seq — holds on a suffix of list
//	                                          (clocks are monotone).
//
// The intersection of the first suffix and the second's complement (a
// prefix) is one contiguous range.
func (s *Store) concurrentRange(list []int32, rank int32, q Query) (int, int) {
	known := q.Clock[rank]
	lo := sort.Search(len(list), func(i int) bool { return s.arena[list[i]].seq > known })
	hi := sort.Search(len(list), func(i int) bool { return s.arena[list[i]].clock[q.Rank] >= q.Seq })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Query probes one vector with a footprint and streams back the stored
// accesses that match, in vector insertion order. classify is called at
// most once per (rank, class) group and decides how the group matches;
// emit receives each matching member's payload exactly once per Query
// call, even when its footprint spans several probed cells (per-member
// stamps dedup the cell walk). fp may differ from the probing event's
// own footprint slice passed at insert time; it is only read.
func (s *Store) Query(key VectorKey, q Query, fp []memory.Interval,
	classify func(rank, class int32) Mode, emit func(payload int32)) {
	v := s.vectors[key]
	if v == nil {
		return
	}
	s.qstamp++
	s.scratch = s.scratch[:0]

	mode := func(g *group) Mode {
		if g.qstamp != s.qstamp {
			g.qstamp = s.qstamp
			g.qmode = classify(g.rank, g.class)
		}
		return g.qmode
	}
	collect := func(id int32) {
		m := &s.arena[id]
		if m.stamp == s.qstamp {
			return
		}
		m.stamp = s.qstamp
		s.scratch = append(s.scratch, id)
	}

	// Unconditional groups: the whole concurrent range of the vector-wide
	// list matches, byte overlap or not.
	for _, g := range v.groups {
		if mode(g) != ModeAll {
			continue
		}
		lo, hi := s.concurrentRange(g.all, g.rank, q)
		for _, id := range g.all[lo:hi] {
			collect(id)
		}
	}

	// Overlap-filtered groups: walk only the cells the query footprint
	// touches. A cell interval is a subset of each member's footprint, so
	// touching a cell proves overlap with every member in it.
	for _, iv := range fp {
		if iv.Lo >= iv.Hi {
			continue
		}
		i := sort.Search(len(v.cells), func(i int) bool { return v.cells[i].hi > iv.Lo })
		for ; i < len(v.cells) && v.cells[i].lo < iv.Hi; i++ {
			c := &v.cells[i]
			for j := range c.entries {
				cg := &c.entries[j]
				if mode(cg.g) != ModeOverlap {
					continue
				}
				lo, hi := s.concurrentRangeCell(cg, q)
				for k := lo; k < hi; k++ {
					collect(cg.at(k))
				}
			}
		}
	}

	// Arena indexes increase in insertion order, so sorting the matches
	// restores exactly the order a pairwise vector scan reports pairs in.
	slices.Sort(s.scratch)
	for _, id := range s.scratch {
		emit(s.arena[id].payload)
	}
}

// concurrentRangeCell is concurrentRange over a cellGroup's (possibly
// inlined) member list.
func (s *Store) concurrentRangeCell(cg *cellGroup, q Query) (int, int) {
	if cg.idxs == nil {
		m := &s.arena[cg.solo]
		if m.seq > q.Clock[cg.g.rank] && m.clock[q.Rank] < q.Seq {
			return 0, 1
		}
		return 0, 0
	}
	known := q.Clock[cg.g.rank]
	lo := sort.Search(len(cg.idxs), func(i int) bool { return s.arena[cg.idxs[i]].seq > known })
	hi := sort.Search(len(cg.idxs), func(i int) bool { return s.arena[cg.idxs[i]].clock[q.Rank] >= q.Seq })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
