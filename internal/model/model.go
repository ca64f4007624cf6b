// Package model implements DN-Analyzer's trace preprocessing
// (paper §IV-C-1): before error checking, the analyzer scans the per-rank
// traces and rebuilds the registries the later stages consult —
// communicators and groups (translating communicator-relative ranks to
// absolute world ranks), window buffers (handle → per-rank base address,
// size, displacement unit), and datatypes (handle → data-map).
package model

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/memory"
	"repro/internal/trace"
)

// CommInfo describes one communicator: Members[rel] is the world rank of
// communicator-relative rank rel.
type CommInfo struct {
	ID      int32
	Members []int32
}

// Size returns the number of member processes.
func (c *CommInfo) Size() int { return len(c.Members) }

// World translates a communicator-relative rank to a world rank.
func (c *CommInfo) World(rel int32) (int32, error) {
	if rel < 0 || int(rel) >= len(c.Members) {
		return 0, fmt.Errorf("model: rank %d out of range for communicator %d of size %d",
			rel, c.ID, len(c.Members))
	}
	return c.Members[rel], nil
}

// WinLocal is one rank's side of an RMA window.
type WinLocal struct {
	Base     uint64
	Size     uint64
	DispUnit uint32
}

// Interval returns the window buffer's simulated address range.
func (wl WinLocal) Interval() memory.Interval { return memory.Iv(wl.Base, wl.Size) }

// WinInfo describes one RMA window across all participating ranks.
type WinInfo struct {
	ID     int32
	Comm   int32
	Locals map[int32]WinLocal // keyed by world rank
}

// Model is the preprocessed view of a trace set.
type Model struct {
	Set   *trace.Set
	Comms map[int32]*CommInfo
	Wins  map[int32]*WinInfo
	types map[typeKey]memory.DataMap

	// winSpans[r] lists the non-empty window buffers of world rank r by
	// base address, for WindowsAt; winList holds their windows.
	winSpans [][]winSpan
	winList  []*WinInfo
}

// winSpan is one window's local buffer at one rank; win indexes
// Model.winList. maxHi is the largest end address of this span and every
// span before it in the rank's base-ordered list, so a backward scan can
// stop at the first span whose maxHi cannot reach the probed interval.
type winSpan struct {
	iv    memory.Interval
	maxHi uint64
	win   int
}

type typeKey struct {
	rank int32
	id   int32
}

// Build scans the trace set and constructs the registries. It validates
// definition events for consistency (duplicate window definitions with
// conflicting communicators, datatype redefinitions).
func Build(set *trace.Set) (*Model, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Set:   set,
		Comms: make(map[int32]*CommInfo),
		Wins:  make(map[int32]*WinInfo),
		types: make(map[typeKey]memory.DataMap),
	}
	// MPI_COMM_WORLD is implicit.
	world := &CommInfo{ID: 0, Members: make([]int32, set.Ranks())}
	for r := range world.Members {
		world.Members[r] = int32(r)
	}
	m.Comms[0] = world

	// Collect each rank's definition events (a tiny fraction of the
	// trace), then merge them in (rank, seq) order.
	defs := make([][]*trace.Event, len(set.Traces))
	for r, t := range set.Traces {
		for i := range t.Events {
			switch t.Events[i].Kind {
			case trace.KindCommCreate, trace.KindWinCreate, trace.KindTypeCreate:
				defs[r] = append(defs[r], &t.Events[i])
			}
		}
	}
	for _, rankDefs := range defs {
		for _, ev := range rankDefs {
			switch ev.Kind {
			case trace.KindCommCreate:
				if err := m.addComm(ev); err != nil {
					return nil, err
				}
			case trace.KindWinCreate:
				if err := m.addWin(ev); err != nil {
					return nil, err
				}
			case trace.KindTypeCreate:
				key := typeKey{rank: ev.Rank, id: ev.TypeID}
				if _, dup := m.types[key]; dup {
					return nil, fmt.Errorf("model: rank %d redefines datatype %d at %s",
						ev.Rank, ev.TypeID, ev.Loc())
				}
				m.types[key] = ev.TypeMap
			}
		}
	}
	m.indexWindows(defs)
	return m, nil
}

// indexWindows builds winSpans from the window definitions of each rank
// (defs as collected by the build sweep): each rank's non-empty window
// buffers sorted by base address, all in one backing array.
func (m *Model) indexWindows(defs [][]*trace.Event) {
	n := 0
	for _, rankDefs := range defs {
		for _, ev := range rankDefs {
			if ev.Kind == trace.KindWinCreate && ev.WinSize > 0 {
				n++
			}
		}
	}
	spans := make([]winSpan, 0, n)
	m.winList = make([]*WinInfo, 0, n)
	byBase := func(a, b winSpan) int { return cmp.Compare(a.iv.Lo, b.iv.Lo) }
	m.winSpans = make([][]winSpan, len(defs))
	for r, rankDefs := range defs {
		lo := len(spans)
		for _, ev := range rankDefs {
			if ev.Kind != trace.KindWinCreate || ev.WinSize == 0 {
				continue
			}
			spans = append(spans, winSpan{iv: memory.Iv(ev.WinBase, ev.WinSize), win: len(m.winList)})
			m.winList = append(m.winList, m.Wins[ev.Win])
		}
		rs := spans[lo:len(spans):len(spans)]
		slices.SortFunc(rs, byBase)
		var maxHi uint64
		for i := range rs {
			maxHi = max(maxHi, rs[i].iv.Hi)
			rs[i].maxHi = maxHi
		}
		m.winSpans[r] = rs
	}
}

func (m *Model) addComm(ev *trace.Event) error {
	if existing, ok := m.Comms[ev.Comm]; ok {
		if len(existing.Members) != len(ev.Members) {
			return fmt.Errorf("model: communicator %d defined with conflicting memberships", ev.Comm)
		}
		for i := range existing.Members {
			if existing.Members[i] != ev.Members[i] {
				return fmt.Errorf("model: communicator %d defined with conflicting memberships", ev.Comm)
			}
		}
		return nil
	}
	m.Comms[ev.Comm] = &CommInfo{ID: ev.Comm, Members: append([]int32(nil), ev.Members...)}
	return nil
}

func (m *Model) addWin(ev *trace.Event) error {
	wi, ok := m.Wins[ev.Win]
	if !ok {
		wi = &WinInfo{ID: ev.Win, Comm: ev.Comm, Locals: make(map[int32]WinLocal)}
		m.Wins[ev.Win] = wi
	}
	if wi.Comm != ev.Comm {
		return fmt.Errorf("model: window %d created on both communicator %d and %d", ev.Win, wi.Comm, ev.Comm)
	}
	if _, dup := wi.Locals[ev.Rank]; dup {
		return fmt.Errorf("model: rank %d defines window %d twice", ev.Rank, ev.Win)
	}
	wi.Locals[ev.Rank] = WinLocal{Base: ev.WinBase, Size: ev.WinSize, DispUnit: ev.DispUnit}
	return nil
}

// Comm returns the communicator registry entry.
func (m *Model) Comm(id int32) (*CommInfo, error) {
	c, ok := m.Comms[id]
	if !ok {
		return nil, fmt.Errorf("model: unknown communicator %d", id)
	}
	return c, nil
}

// Win returns the window registry entry.
func (m *Model) Win(id int32) (*WinInfo, error) {
	w, ok := m.Wins[id]
	if !ok {
		return nil, fmt.Errorf("model: unknown window %d", id)
	}
	return w, nil
}

// Type resolves a datatype id used by a rank to its data-map: predefined
// ids resolve globally, user-defined ids per defining rank.
func (m *Model) Type(rank, id int32) (memory.DataMap, error) {
	if dm, ok := trace.PredefinedType(id); ok {
		return dm, nil
	}
	dm, ok := m.types[typeKey{rank: rank, id: id}]
	if !ok {
		return memory.DataMap{}, fmt.Errorf("model: rank %d uses undefined datatype %d", rank, id)
	}
	return dm, nil
}

// Footprint is the set of byte intervals one memory operation touches in
// one rank's address space.
type Footprint struct {
	Rank      int32 // world rank owning the address space
	Intervals []memory.Interval
}

// Overlaps reports whether two footprints share bytes; both must be in the
// same rank's address space to overlap.
func (f Footprint) Overlaps(o Footprint) (memory.Interval, bool) {
	if f.Rank != o.Rank {
		return memory.Interval{}, false
	}
	i, j := 0, 0
	for i < len(f.Intervals) && j < len(o.Intervals) {
		if x, ok := f.Intervals[i].Intersect(o.Intervals[j]); ok {
			return x, true
		}
		if f.Intervals[i].Hi <= o.Intervals[j].Hi {
			i++
		} else {
			j++
		}
	}
	return memory.Interval{}, false
}

// TargetWorld resolves the world rank an RMA operation targets.
func (m *Model) TargetWorld(ev *trace.Event) (int32, error) {
	wi, err := m.Win(ev.Win)
	if err != nil {
		return 0, err
	}
	ci, err := m.Comm(wi.Comm)
	if err != nil {
		return 0, err
	}
	return ci.World(ev.Target)
}

// TargetFootprint computes the window-buffer bytes an RMA operation touches
// at the target.
func (m *Model) TargetFootprint(ev *trace.Event) (Footprint, error) {
	fp, _, err := m.AppendTargetFootprint(nil, ev)
	return fp, err
}

// AppendTargetFootprint is TargetFootprint with the footprint's intervals
// appended to dst: it returns the footprint, whose Intervals are the
// appended part, and the extended slice.
func (m *Model) AppendTargetFootprint(dst []memory.Interval, ev *trace.Event) (Footprint, []memory.Interval, error) {
	if !ev.Kind.IsRMAComm() {
		return Footprint{}, dst, fmt.Errorf("model: %v is not an RMA operation", ev.Kind)
	}
	wi, err := m.Win(ev.Win)
	if err != nil {
		return Footprint{}, dst, err
	}
	tw, err := m.TargetWorld(ev)
	if err != nil {
		return Footprint{}, dst, err
	}
	local, ok := wi.Locals[tw]
	if !ok {
		return Footprint{}, dst, fmt.Errorf("model: window %d has no local buffer at rank %d", ev.Win, tw)
	}
	dm, err := m.Type(ev.Rank, ev.TargetType)
	if err != nil {
		return Footprint{}, dst, err
	}
	base := local.Base + ev.TargetDisp*uint64(local.DispUnit)
	fp, dst := appendTile(dst, tw, dm, base, ev.TargetCount)
	return fp, dst, nil
}

// OriginFootprint computes the local-buffer bytes an RMA operation (or a
// p2p/collective call) touches at the origin rank.
func (m *Model) OriginFootprint(ev *trace.Event) (Footprint, error) {
	fp, _, err := m.AppendOriginFootprint(nil, ev)
	return fp, err
}

// AppendOriginFootprint is OriginFootprint in the append form of
// AppendTargetFootprint.
func (m *Model) AppendOriginFootprint(dst []memory.Interval, ev *trace.Event) (Footprint, []memory.Interval, error) {
	dm, err := m.Type(ev.Rank, ev.OriginType)
	if err != nil {
		return Footprint{}, dst, err
	}
	fp, dst := appendTile(dst, ev.Rank, dm, ev.OriginAddr, ev.OriginCount)
	return fp, dst, nil
}

// ResultFootprint computes the local result-buffer bytes a fetching atomic
// (Get_accumulate, Fetch_and_op, Compare_and_swap) writes at completion.
// It returns an empty footprint for operations without a result buffer.
func (m *Model) ResultFootprint(ev *trace.Event) (Footprint, error) {
	fp, _, err := m.AppendResultFootprint(nil, ev)
	return fp, err
}

// AppendResultFootprint is ResultFootprint in the append form of
// AppendTargetFootprint.
func (m *Model) AppendResultFootprint(dst []memory.Interval, ev *trace.Event) (Footprint, []memory.Interval, error) {
	if ev.ResultCount <= 0 {
		return Footprint{Rank: ev.Rank}, dst, nil
	}
	dm, err := m.Type(ev.Rank, ev.ResultType)
	if err != nil {
		return Footprint{}, dst, err
	}
	fp, dst := appendTile(dst, ev.Rank, dm, ev.ResultAddr, ev.ResultCount)
	return fp, dst, nil
}

// appendTile tiles count elements of dm at base onto dst and returns them
// as a footprint in rank's address space. The footprint's Intervals have
// no spare capacity, so appending to them never writes into dst.
func appendTile(dst []memory.Interval, rank int32, dm memory.DataMap, base uint64, count int32) (Footprint, []memory.Interval) {
	start := len(dst)
	dst = dm.AppendTile(dst, base, int(count))
	return Footprint{Rank: rank, Intervals: dst[start:len(dst):len(dst)]}, dst
}

// AccessFootprint computes the bytes a local load/store touches.
func AccessFootprint(ev *trace.Event) Footprint {
	return Footprint{Rank: ev.Rank, Intervals: []memory.Interval{memory.Iv(ev.Addr, ev.Size)}}
}

// WindowsAt returns every window whose local buffer at the given world
// rank overlaps the address interval, in window ID order. MPI lets several
// windows expose the same memory, so a local access may touch more than
// one. The result is shared and must not be modified.
func (m *Model) WindowsAt(rank int32, iv memory.Interval) []*WinInfo {
	if iv.Empty() || rank < 0 || int(rank) >= len(m.winSpans) {
		return nil
	}
	spans := m.winSpans[rank]
	// Spans from j on start at or after iv.Hi and cannot overlap.
	j := sort.Search(len(spans), func(i int) bool { return spans[i].iv.Lo >= iv.Hi })
	var hit []*WinInfo
	for i := j - 1; i >= 0 && spans[i].maxHi > iv.Lo; i-- {
		if !spans[i].iv.Overlaps(iv) {
			continue
		}
		if k := spans[i].win; hit == nil {
			hit = m.winList[k : k+1 : k+1] // shared; capacity 1, so a later append copies
		} else {
			hit = append(hit, m.winList[k])
		}
	}
	if len(hit) > 1 {
		slices.SortFunc(hit, func(a, b *WinInfo) int { return cmp.Compare(a.ID, b.ID) })
	}
	return hit
}
