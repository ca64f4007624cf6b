// Package dag builds DN-Analyzer's data-access DAG (paper §III-B): every
// runtime event is a vertex, vertices within a rank are ordered by program
// order, and matched synchronization calls contribute cross-process edges
// according to the happens-before relation. Blocking receives and waits
// gain an edge from the matched send; PSCW synchronization gains
// post→start and complete→wait edges; all-to-all collectives such as
// barriers order every member against every other.
//
// Rather than materializing edges, the builder computes vector clocks: each
// rank's trace is split into segments at every event that receives an
// incoming cross-process ordering, and each segment stores one clock — the
// highest event sequence number of every rank known to happen-before the
// segment — in one arena shared by all segments. Concurrency queries are
// then O(1) (paper §III-B's "unordered in the DAG"), and the clock storage
// is proportional to the number of synchronization events rather than all
// events.
//
// The package also extracts concurrent regions: global synchronization
// events that all ranks participate in partition the DAG into sequentially
// ordered regions (paper §III-B, Figure 4), which the detector analyzes
// independently.
package dag

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/trace"
)

// VC is a vector clock: VC[r] is the highest event seq of rank r known to
// happen-before this point, or -1 if none.
type VC []int64

// join sets vc to the elementwise max of vc and o.
func (vc VC) join(o VC) {
	for i, v := range o {
		if v > vc[i] {
			vc[i] = v
		}
	}
}

// DAG is the built happens-before structure over one trace set.
type DAG struct {
	set *trace.Set
	n   int // ranks: the length of every clock

	// segOf[r][seq] is the segment of rank r, counted from the rank's
	// first, that holds event seq; every rank's slice is cut from one
	// array.
	segOf [][]int32
	// clocks holds the clock of every segment, n values each: rank r's
	// segments, in seq order, are clock-arena slots first[r] up to
	// first[r+1].
	clocks []int64
	first  []int

	regions []Region
}

// Region is one concurrent region: for every rank, the half-open event
// range [Start[r], End[r]) belonging to the region. Regions are delimited
// by global synchronization events spanning all ranks; the delimiting
// events themselves belong to the earlier region.
type Region struct {
	Index int
	Start []int64
	End   []int64
}

// Span returns the half-open range [start, end) of the seqs of one rank's
// events inside the region.
func (rg *Region) Span(rank int32) (int64, int64) {
	return rg.Start[rank], rg.End[rank]
}

// syncPoint is one entry of a rank's synchronization points, the events
// that join other ranks' clocks into a new segment: an event with incoming
// edges has one entry per edge, naming the edge's source in from, and a
// member of a barrier-like group has one entry naming the group.
type syncPoint struct {
	seq   int64
	group int32 // index in Matches.Groups; -1 for an edge
	from  trace.ID
}

// eachPoint calls f with the event and the entry of every synchronization
// point the matches give: first one per member of a barrier-like group,
// then one per rooted-collective edge and one per pair. An event in a
// group takes its clock from the group alone, so its group entry must
// come first.
func eachPoint(ms *match.Matches, f func(at trace.ID, p syncPoint)) {
	for i := range ms.Groups {
		if g := &ms.Groups[i]; g.Direction == match.DirAll {
			for _, id := range g.Events {
				f(id, syncPoint{seq: id.Seq, group: int32(i)})
			}
		}
	}
	for i := range ms.Groups {
		g := &ms.Groups[i]
		for _, id := range g.Events {
			switch {
			case g.Direction == match.DirAll, id == g.Root:
			case g.Direction == match.DirFromRoot:
				f(id, syncPoint{seq: id.Seq, group: -1, from: g.Root})
			default: // DirToRoot
				f(g.Root, syncPoint{seq: g.Root.Seq, group: -1, from: id})
			}
		}
	}
	for _, pairs := range [...][]match.Pair{ms.P2P, ms.PostStart, ms.CompleteWait} {
		for _, p := range pairs {
			f(p.To, syncPoint{seq: p.To.Seq, group: -1, from: p.From})
		}
	}
}

// syncPoints returns every rank's synchronization points in seq order,
// those at one event in eachPoint's order, all cut from one array. It
// sorts them by counting, with at, one slot per event, as scratch space:
// at first counts the entries of each event, then holds where the event's
// next entry goes. An entry past the end of its rank's trace, which only
// a rooted group without its root can give, is never reached and is left
// out.
func syncPoints(at [][]int32, ms *match.Matches) [][]syncPoint {
	total := 0
	eachPoint(ms, func(id trace.ID, _ syncPoint) {
		if id.Seq < int64(len(at[id.Rank])) {
			at[id.Rank][id.Seq]++
			total++
		}
	})
	all := make([]syncPoint, total)
	points := make([][]syncPoint, len(at))
	off := 0
	for r, slots := range at {
		lo := off
		for seq, c := range slots {
			slots[seq] = int32(off)
			off += int(c)
		}
		points[r] = all[lo:off:off]
	}
	eachPoint(ms, func(id trace.ID, p syncPoint) {
		if id.Seq < int64(len(at[id.Rank])) {
			all[at[id.Rank][id.Seq]] = p
			at[id.Rank][id.Seq]++
		}
	})
	return points
}

// pointEnd returns the index just past the entries of pts, from i on,
// that sit at seq.
func pointEnd(pts []syncPoint, i int, seq int64) int {
	for i < len(pts) && pts[i].seq == seq {
		i++
	}
	return i
}

// clock returns segment seg of rank r's clock in the arena.
func (d *DAG) clock(r int32, seg int32) VC {
	i := (d.first[r] + int(seg)) * d.n
	return d.clocks[i : i+d.n : i+d.n]
}

// Build constructs the DAG for the model's trace set using the matches.
//
// Each rank's synchronization points are walked by a cursor beside the
// rank's event cursor: the plain events up to the next point take the
// rank's current segment in one step, and a point opens the next segment
// once every event it joins has been processed. One segment per point,
// plus the initial one, fixes the clock arena's size before the walk.
func Build(m *model.Model, ms *match.Matches) (*DAG, error) {
	set := m.Set
	n := set.Ranks()
	d := &DAG{set: set, n: n, segOf: make([][]int32, n), first: make([]int, n+1)}
	segOf := make([]int32, set.TotalEvents())
	for r, t := range set.Traces {
		d.segOf[r], segOf = segOf[:len(t.Events):len(t.Events)], segOf[len(t.Events):]
	}
	points := syncPoints(d.segOf, ms) // the walk below then sets every segOf entry
	for r := range n {
		segs := 1
		for i, p := range points[r] {
			if i == 0 || p.seq != points[r][i-1].seq {
				segs++
			}
		}
		d.first[r+1] = d.first[r] + segs
	}
	d.clocks = make([]int64, d.first[n]*n)
	for r := range n {
		initial := d.clock(int32(r), 0)
		for i := range initial {
			initial[i] = -1
		}
	}

	// Process events in a deadlock-free simulation order (the trace came
	// from a real run, so one exists). The clocks do not depend on the
	// order, only on the edges.
	cursor := make([]int64, n) // next event of each rank
	next := make([]int, n)     // next synchronization point of each rank
	cur := make([]int32, n)    // current segment of each rank
	joint := make(VC, n)
	total := int64(set.TotalEvents())
	var done int64
	for done < total {
		progress := false
		for r := int32(0); r < int32(n); r++ {
			events := int64(len(set.Traces[r].Events))
			pts := points[r]
			for cursor[r] < events {
				stop := events
				if next[r] < len(pts) {
					stop = min(pts[next[r]].seq, events)
				}
				if cursor[r] < stop {
					// Plain events stay in the current segment.
					seg := d.segOf[r][cursor[r]:stop]
					for i := range seg {
						seg[i] = cur[r]
					}
					done += stop - cursor[r]
					cursor[r] = stop
					progress = true
					continue
				}
				id := trace.ID{Rank: r, Seq: cursor[r]}
				if p := pts[next[r]]; p.group >= 0 {
					// Barrier-like group: wait until every member is at its
					// group event, then every member starts a fresh segment
					// with the joint clock.
					g := &ms.Groups[p.group]
					if !groupReady(g, id, cursor) {
						break // stall this rank
					}
					for i := range joint {
						joint[i] = -1
					}
					for _, mid := range g.Events {
						joint.join(d.clock(mid.Rank, cur[mid.Rank]))
						if mid.Seq > joint[mid.Rank] {
							joint[mid.Rank] = mid.Seq
						}
					}
					for _, mid := range g.Events {
						q := mid.Rank
						cur[q]++
						copy(d.clock(q, cur[q]), joint)
						d.segOf[q][mid.Seq] = cur[q]
						cursor[q] = mid.Seq + 1
						next[q] = pointEnd(points[q], next[q], mid.Seq)
						done++
					}
					progress = true
					continue
				}
				end := pointEnd(pts, next[r], id.Seq)
				ins := pts[next[r]:end]
				if !edgesReady(ins, cursor) {
					break // stall until the sources are processed
				}
				nv := d.clock(r, cur[r]+1)
				copy(nv, d.clock(r, cur[r]))
				for _, in := range ins {
					from := in.from
					nv.join(d.clock(from.Rank, d.segOf[from.Rank][from.Seq]))
					if from.Seq > nv[from.Rank] {
						nv[from.Rank] = from.Seq
					}
				}
				cur[r]++
				d.segOf[r][id.Seq] = cur[r]
				cursor[r]++
				next[r] = end
				done++
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("dag: no progress with %d of %d events processed; trace ordering is cyclic or matches are inconsistent", done, total)
		}
	}

	d.buildRegions(ms)
	return d, nil
}

// groupReady reports whether every member of g other than id has reached
// its group event.
func groupReady(g *match.Group, id trace.ID, cursor []int64) bool {
	for _, mid := range g.Events {
		if mid != id && cursor[mid.Rank] < mid.Seq {
			return false
		}
	}
	return true
}

// edgesReady reports whether the source of every edge has been processed.
func edgesReady(ins []syncPoint, cursor []int64) bool {
	for _, in := range ins {
		if cursor[in.from.Rank] <= in.from.Seq {
			return false
		}
	}
	return true
}

// buildRegions partitions the trace by the global synchronization
// instances: the barrier-like groups spanning all ranks. They are totally
// ordered, so they are put in the order of their events on rank 0. All
// regions' bounds share one allocation.
func (d *DAG) buildRegions(ms *match.Matches) {
	n := d.n
	global := func(g *match.Group) bool { return g.Direction == match.DirAll && len(g.Events) == n }
	count := 0
	for i := range ms.Groups {
		if global(&ms.Groups[i]) {
			count++
		}
	}
	globals := make([][]trace.ID, 0, count)
	for i := range ms.Groups {
		if g := &ms.Groups[i]; global(g) {
			globals = append(globals, g.Events)
		}
	}
	slices.SortStableFunc(globals, func(a, b []trace.ID) int { return cmp.Compare(seqOn(a, 0), seqOn(b, 0)) })
	bounds := make([]int64, 2*n*(len(globals)+1))
	d.regions = make([]Region, len(globals)+1)
	for i := range d.regions {
		b := bounds[2*n*i : 2*n*(i+1) : 2*n*(i+1)]
		rg := &d.regions[i]
		*rg = Region{Index: i, Start: b[:n:n], End: b[n:]}
		if i > 0 {
			copy(rg.Start, d.regions[i-1].End)
		}
		if i < len(globals) {
			for _, id := range globals[i] {
				rg.End[id.Rank] = id.Seq + 1 // delimiter belongs to earlier region
			}
		} else {
			for r := range rg.End {
				rg.End[r] = int64(len(d.set.Traces[r].Events))
			}
		}
	}
}

func seqOn(g []trace.ID, rank int32) int64 {
	for _, id := range g {
		if id.Rank == rank {
			return id.Seq
		}
	}
	return -1
}

// HappensBefore reports whether a is ordered before b by program order or
// the synchronization edges.
func (d *DAG) HappensBefore(a, b trace.ID) bool {
	if a.Rank == b.Rank {
		return a.Seq < b.Seq
	}
	return d.clock(b.Rank, d.segOf[b.Rank][b.Seq])[a.Rank] >= a.Seq
}

// Concurrent reports whether a and b are unordered (and distinct).
func (d *DAG) Concurrent(a, b trace.ID) bool {
	if a == b {
		return false
	}
	return !d.HappensBefore(a, b) && !d.HappensBefore(b, a)
}

// Regions returns the concurrent regions in order.
func (d *DAG) Regions() []Region { return d.regions }

// Segments returns the number of clock segments of one rank (a measure of
// how much synchronization the rank observed); exported for tests and
// diagnostics.
func (d *DAG) Segments(rank int32) int { return d.first[rank+1] - d.first[rank] }

// ClockRef returns the vector clock in effect for an event without
// copying: the clock of the segment the event belongs to. The returned
// slice is owned by the DAG and must be treated as read-only. This is
// the clock-edge export the shadow-memory engine builds its
// concurrent-range searches on; along one rank's program order the
// returned clocks are elementwise monotone non-decreasing (segments
// only ever join in more knowledge), which is what makes binary search
// over per-rank access lists sound.
func (d *DAG) ClockRef(id trace.ID) VC {
	return d.clock(id.Rank, d.segOf[id.Rank][id.Seq])
}
