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
//   - cells and their group entries hold no pointers: a vector keeps
//     its entries in one arena, each cell chains its own through int32
//     links, and a group spills to a list in the vector's spill table.
//     Inserting a cell shifts plain memory the garbage collector never
//     scans;
//   - vectors live in reused slots: a region's vectors take the store's
//     slots in order of first insert, so once an earlier region has grown
//     as many slots, a fresh vector and its cells allocate nothing,
//     whatever (window, target) key it has;
//   - sites are interned in a Depot (see depot.go) so per-site work is
//     done once.
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
	// Seq is the event sequence number within the origin rank.
	Seq int64
	// Clock is the vector clock of the access's DAG segment, read-only.
	// Successive inserts from one rank must carry elementwise monotone
	// non-decreasing clocks (true of segment clocks along program order).
	Clock []int64
	// Target is the access's byte footprint: ascending, disjoint
	// intervals, read only during Insert. May be empty; the member is then
	// reachable only through ModeAll group matches, never through overlap
	// filtering.
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
	seq     int64
	clock   []int64
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

// cellGroup is one group's slice of a cell, an entry of its vector's
// ents arena. The single-member case is inlined (solo) — FastTrack's
// one-epoch summary — and spills to a member list in the vector's spills
// only when a second member of the same (rank, class) lands on the same
// bytes. A cell's entries form a chain through next.
type cellGroup struct {
	group int32 // index into vector.groups
	solo  int32 // the member while spill < 0
	spill int32 // index into vector.spills, or -1 while the group has one member here
	next  int32 // next entry of the same cell, or -1
}

// cell is one byte interval [lo, hi) of a vector with the members whose
// footprints cover it, partitioned by group: head is the first of its
// entries in the vector's ents arena. Neither cells nor entries hold a
// pointer, so shifting cells is a plain memmove and the garbage
// collector never scans them.
type cell struct {
	lo, hi uint64
	head   int32
}

type groupKey struct {
	rank  int32
	class int32
}

type vector struct {
	cells  []cell      // sorted by lo, pairwise disjoint
	ents   []cellGroup // every cell's entries
	spills [][]int32   // spilled member lists, arena indexes in insertion order
	groups []group
	gindex map[groupKey]int32 // (rank, class) → index into groups
}

func (v *vector) group(rank, class int32) int32 {
	k := groupKey{rank: rank, class: class}
	if g, ok := v.gindex[k]; ok {
		return g
	}
	g := int32(len(v.groups))
	if len(v.groups) < cap(v.groups) {
		// Reuse the member list of a group retired by Reset.
		v.groups = v.groups[:g+1]
		v.groups[g] = group{rank: rank, class: class, all: v.groups[g].all[:0]}
	} else {
		v.groups = append(v.groups, group{rank: rank, class: class})
	}
	v.gindex[k] = g
	return g
}

// reset empties the vector, keeping its cell, entry and group slices.
func (v *vector) reset() {
	v.cells = v.cells[:0]
	v.ents = v.ents[:0]
	clear(v.spills)
	v.spills = v.spills[:0]
	v.groups = v.groups[:0]
	clear(v.gindex)
}

func (v *vector) insertCell(i int, c cell) {
	v.cells = append(v.cells, cell{})
	copy(v.cells[i+1:], v.cells[i:])
	v.cells[i] = c
}

// newEntry appends a one-member entry of group g and returns its index.
func (v *vector) newEntry(g, id int32) int32 {
	e := int32(len(v.ents))
	v.ents = append(v.ents, cellGroup{group: g, solo: id, spill: -1, next: -1})
	return e
}

// add appends member id of group g to the cell c.
func (v *vector) add(c *cell, g, id int32) {
	last := int32(-1)
	for e := c.head; e >= 0; e = v.ents[e].next {
		cg := &v.ents[e]
		if cg.group != g {
			last = e
			continue
		}
		if cg.spill < 0 {
			cg.spill = int32(len(v.spills))
			v.spills = append(v.spills, append(make([]int32, 0, 4), cg.solo, id))
		} else {
			v.spills[cg.spill] = append(v.spills[cg.spill], id)
		}
		return
	}
	e := v.newEntry(g, id)
	if last < 0 {
		c.head = e
	} else {
		v.ents[last].next = e
	}
}

// cloneEntries copies the entry chain starting at head for a split and
// returns the copy's head. A copied spilled list shares its backing
// array, capped at its current length, so a later append to either half
// reallocates instead of clobbering the other.
func (v *vector) cloneEntries(head int32) int32 {
	first, last := int32(-1), int32(-1)
	for e := head; e >= 0; e = v.ents[e].next {
		cg := v.ents[e]
		if cg.spill >= 0 {
			list := v.spills[cg.spill]
			cg.spill = int32(len(v.spills))
			v.spills = append(v.spills, list[:len(list):len(list)])
		}
		cg.next = -1
		n := int32(len(v.ents))
		v.ents = append(v.ents, cg)
		if last < 0 {
			first = n
		} else {
			v.ents[last].next = n
		}
		last = n
	}
	return first
}

// cover registers member id of group g over interval iv: boundary cells
// are split so the covered cells tile iv exactly, gaps get fresh cells,
// and the member is appended to every covered cell.
func (v *vector) cover(iv memory.Interval, g, id int32) {
	lo := iv.Lo
	if lo >= iv.Hi {
		return
	}
	i := sort.Search(len(v.cells), func(i int) bool { return v.cells[i].hi > lo })
	for lo < iv.Hi {
		if i == len(v.cells) || v.cells[i].lo >= iv.Hi {
			// No existing cell before iv.Hi: one fresh cell for the rest.
			v.insertCell(i, cell{lo: lo, hi: iv.Hi, head: v.newEntry(g, id)})
			return
		}
		c := &v.cells[i]
		if c.lo > lo {
			// Gap before the next cell.
			v.insertCell(i, cell{lo: lo, hi: c.lo, head: v.newEntry(g, id)})
			i++
			lo = v.cells[i].lo
			continue
		}
		if c.lo < lo {
			// Split off the uncovered left part [c.lo, lo).
			right := cell{lo: lo, hi: c.hi, head: v.cloneEntries(c.head)}
			c.hi = lo
			v.insertCell(i+1, right)
			i++
			continue
		}
		// c.lo == lo.
		if c.hi > iv.Hi {
			// Split off the uncovered right part [iv.Hi, c.hi).
			right := cell{lo: iv.Hi, hi: c.hi, head: c.head}
			c.hi, c.head = iv.Hi, v.cloneEntries(c.head)
			v.insertCell(i+1, right)
			c = &v.cells[i]
		}
		// Cell is now a subset of iv.
		v.add(c, g, id)
		lo = c.hi
		i++
	}
}

// Store is the shadow map of one concurrent region: every vector's cell
// partition plus a shared member arena. Not safe for concurrent use. The
// detector keeps one store per analysis and calls Reset between regions,
// so the arena, query scratch and vector slots are allocated once and
// reused.
type Store struct {
	// slots holds every vector the store has grown. The current region's
	// vectors are slots[:len(index)], in order of first insert, and index
	// maps each of their keys to its slot.
	slots   []vector
	index   map[VectorKey]int32
	arena   []member
	scratch []int32
	qstamp  uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{index: make(map[VectorKey]int32)}
}

// Reset empties the store, keeping its allocations for the next region:
// the member arena, the query scratch, and each slot the region used with
// its cell, entry and group slices and its group map. Members inserted
// before Reset are never emitted again.
func (s *Store) Reset() {
	clear(s.arena) // drop the clock references
	s.arena = s.arena[:0]
	for i := range len(s.index) {
		s.slots[i].reset()
	}
	clear(s.index)
}

// vector returns the current region's vector under key, or nil if the
// region stored nothing there.
func (s *Store) vector(key VectorKey) *vector {
	if i, ok := s.index[key]; ok {
		return &s.slots[i]
	}
	return nil
}

// Grow makes room for n more inserted accesses in the member arena, so a
// caller that knows a region's size grows it once instead of by appends.
func (s *Store) Grow(n int) {
	s.arena = slices.Grow(s.arena, n)
}

// Members returns the total number of inserted accesses.
func (s *Store) Members() int { return len(s.arena) }

// Cells returns the number of shadow cells of one vector.
func (s *Store) Cells(key VectorKey) int {
	if v := s.vector(key); v != nil {
		return len(v.cells)
	}
	return 0
}

// Groups returns the number of (rank, class) groups of one vector.
func (s *Store) Groups(key VectorKey) int {
	if v := s.vector(key); v != nil {
		return len(v.groups)
	}
	return 0
}

// Insert adds an access to a vector, splitting shadow cells as needed.
// Accesses must be inserted in the global order the pairwise detector
// would have scanned them (rank-major, ascending seq within a rank):
// Query reproduces exactly that order on match.
func (s *Store) Insert(key VectorKey, a Access) {
	i, ok := s.index[key]
	if !ok {
		i = int32(len(s.index))
		s.index[key] = i
		if int(i) == len(s.slots) {
			// Double when full: past 256 slots append grows about 1.25×
			// a step, so a region with thousands of vectors would
			// allocate several times the final slice in discarded copies.
			if len(s.slots) == cap(s.slots) {
				s.slots = slices.Grow(s.slots, len(s.slots))
			}
			s.slots = append(s.slots, vector{gindex: make(map[groupKey]int32)})
		}
	}
	v := &s.slots[i]
	g := v.group(a.Rank, a.Class)
	id := int32(len(s.arena))
	s.arena = append(s.arena, member{payload: a.Payload, seq: a.Seq, clock: a.Clock})
	v.groups[g].all = append(v.groups[g].all, id)
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
	v := s.vector(key)
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
	for gi := range v.groups {
		g := &v.groups[gi]
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
			for e := v.cells[i].head; e >= 0; e = v.ents[e].next {
				cg := &v.ents[e]
				g := &v.groups[cg.group]
				if mode(g) != ModeOverlap {
					continue
				}
				if cg.spill < 0 {
					m := &s.arena[cg.solo]
					if m.seq > q.Clock[g.rank] && m.clock[q.Rank] < q.Seq {
						collect(cg.solo)
					}
					continue
				}
				list := v.spills[cg.spill]
				lo, hi := s.concurrentRange(list, g.rank, q)
				for _, id := range list[lo:hi] {
					collect(id)
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
