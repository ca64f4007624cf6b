package core

import (
	"math"
	"testing"

	"repro/internal/testutil"
	"repro/internal/trace"
)

// FuzzFrontEnd damages the trace of a bundled bug case and checks that
// the analysis returns a report or an error, never a panic. An input picks
// a trace (every AllCases entry, buggy and fixed, run once with at most 8
// ranks), an event, and two (field, value) changes, either of which can
// be none. With all set, the changes go to the event of the same kind and
// per-rank ordinal on every rank too, which keeps a collective consistent
// across ranks so the damage reaches the later phases: a Barrier turned
// into a Bcast whose root is outside the communicator on every rank is
// one such input, and it takes both changes, since no bug case has a
// rooted collective. Values fall in a small range around the valid ones,
// except that a count of a predefined type ranges over all of int32: such
// a type fills its extent, so its footprint is one interval at any count.
// A count of a derived type stays at most 19. That cap works around a
// known defect, open in ROADMAP.md: memory.DataMap.AppendTile reserves
// count × segments intervals for a type with gaps and visits every
// element, so a count near 2^31 makes the analysis ask for tens of GB.
func FuzzFrontEnd(f *testing.F) {
	cases, err := testutil.CaseTraces(1, 8)
	if err != nil {
		f.Fatal(err)
	}
	for i := range cases {
		f.Add(uint8(i), uint16(37*i), i%2 == 1, uint8(i), int32(i), uint8(10), int32(0))
		if at := firstOfKind(cases[i].Set, trace.KindPut); at >= 0 {
			f.Add(uint8(i), uint16(at), true, uint8(8), int32(math.MaxInt32), uint8(10), int32(0))
		}
	}
	f.Fuzz(func(t *testing.T, pick uint8, event uint16, all bool, field1 uint8, value1 int32, field2 uint8, value2 int32) {
		set := cloneSet(cases[int(pick)%len(cases)].Set)
		total := set.TotalEvents()
		if total == 0 {
			return
		}
		at := eventAt(set, int(event)%total)
		kind, ordinal := at.Kind, kindOrdinal(set.Traces[at.Rank], at.Seq)
		targets := []*trace.Event{at}
		if all {
			targets = targets[:0]
			for _, tr := range set.Traces {
				if ev := nthOfKind(tr, kind, ordinal); ev != nil {
					targets = append(targets, ev)
				}
			}
		}
		for _, ev := range targets {
			mutate(ev, field1, value1)
			mutate(ev, field2, value2)
		}
		_, _ = AnalyzeWith(set, DefaultOptions()) // a report or an error; a panic fails the input
	})
}

// cloneSet copies every event, so that mutating one leaves the original.
func cloneSet(set *trace.Set) *trace.Set {
	out := trace.NewSet(set.Ranks())
	for r, tr := range set.Traces {
		out.Traces[r].Events = append([]trace.Event(nil), tr.Events...)
	}
	return out
}

// eventAt returns the i-th event of the set, counting rank by rank.
func eventAt(set *trace.Set, i int) *trace.Event {
	for _, tr := range set.Traces {
		if i < len(tr.Events) {
			return &tr.Events[i]
		}
		i -= len(tr.Events)
	}
	return nil
}

// firstOfKind returns the index, counting rank by rank as eventAt does,
// of the set's first event of kind, or -1.
func firstOfKind(set *trace.Set, kind trace.Kind) int {
	i := 0
	for _, tr := range set.Traces {
		for _, ev := range tr.Events {
			if ev.Kind == kind {
				return i
			}
			i++
		}
	}
	return -1
}

// kindOrdinal returns how many events of the same kind precede event seq.
func kindOrdinal(tr *trace.Trace, seq int64) int {
	n := 0
	for i := int64(0); i < seq; i++ {
		if tr.Events[i].Kind == tr.Events[seq].Kind {
			n++
		}
	}
	return n
}

// nthOfKind returns the rank's event of kind with the given ordinal, or
// nil.
func nthOfKind(tr *trace.Trace, kind trace.Kind, ordinal int) *trace.Event {
	for i := range tr.Events {
		if tr.Events[i].Kind == kind {
			if ordinal == 0 {
				return &tr.Events[i]
			}
			ordinal--
		}
	}
	return nil
}

// mutate sets one field of ev, chosen by field, from value: the kind
// (any of the KindCount values, the invalid one included); the
// communicator, peer, tag, window or target, to a small id from −4 to 19;
// the lock type; the members, to up to three ranks from −2 to 13; the
// origin and target counts, to any value for a predefined type and from
// −4 to 19 for any other; the target displacement, to any value; or
// none.
func mutate(ev *trace.Event, field uint8, value int32) {
	small := int32(uint32(value)%24) - 4
	switch field % 11 {
	case 0:
		ev.Kind = trace.Kind(uint32(value) % uint32(trace.KindCount))
	case 1:
		ev.Comm = small
	case 2:
		ev.Peer = small
	case 3:
		ev.Tag = small
	case 4:
		ev.Win = small
	case 5:
		ev.Target = small
	case 6:
		ev.Lock = trace.LockType(uint32(value) % 4)
	case 7:
		members := make([]int32, uint32(value)%4)
		for k := range members {
			members[k] = int32(uint32(value)>>(2+4*k)&15) - 2
		}
		var def trace.Def // a fresh Def: event copies may share ev.Def
		if ev.Def != nil {
			def = *ev.Def
		}
		def.Members = members
		ev.Def = &def
	case 8:
		ev.OriginCount, ev.TargetCount = small, small
		if trace.IsPredefinedType(ev.OriginType) {
			ev.OriginCount = value
		}
		if trace.IsPredefinedType(ev.TargetType) {
			ev.TargetCount = value
		}
	case 9:
		ev.TargetDisp = uint64(int64(value))
	}
}
