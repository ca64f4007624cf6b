package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// Edge cases of the within-epoch detector's address index: each trace's
// report must be byte-identical, in text and JSON, to the
// PairwiseIntraEpoch reference scan's, and the reference must report
// exactly the listed conflicts.

// intraAgree fails unless the production within-epoch detector renders
// set's report byte-identically to PairwiseIntraEpoch. It returns the
// reference report.
func intraAgree(t *testing.T, set *trace.Set) *Report {
	t.Helper()
	m, err := model.Build(set)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := PairwiseIntraEpoch(m)
	if err != nil {
		t.Fatal(err)
	}
	refJS, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeWith(set, Options{IntraEpoch: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.String(), ref.String(); got != want {
		t.Errorf("report diverged from the reference\n--- reference ---\n%s\n--- production ---\n%s", want, got)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, refJS) {
		t.Error("JSON report diverged from the reference")
	}
	return ref
}

// wantPairs fails unless rep's violations are exactly the listed
// "lineA-lineB" pairs (the pending operation's line first), in any order.
func wantPairs(t *testing.T, rep *Report, want ...string) {
	t.Helper()
	var got []string
	for _, v := range rep.Violations {
		got = append(got, fmt.Sprintf("%d-%d", v.A.Line, v.B.Line))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("violations %v, want %v:\n%s", got, want, rep)
	}
}

// rma builds a one-element RMA operation on win to target with int32
// origin and target types.
func rma(kind trace.Kind, win, target int32, originAddr, disp uint64, line int32) trace.Event {
	return loc(trace.Event{Kind: kind, Win: win, Target: target,
		OriginAddr: originAddr, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: disp, TargetType: trace.TypeInt32, TargetCount: 1}, line)
}

func flushEv(kind trace.Kind, target int32, line int32) trace.Event {
	return loc(trace.Event{Kind: kind, Win: 1, Target: target}, line)
}

func accessEv(kind trace.Kind, addr, size uint64, line int32) trace.Event {
	return loc(trace.Event{Kind: kind, Addr: addr, Size: size}, line)
}

// lockAllEpoch appends a lock_all epoch on window 1 holding evs to rank 0.
func lockAllEpoch(b *testutil.TraceBuilder, evs ...trace.Event) {
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLockAll, Win: 1}, 1))
	for _, ev := range evs {
		b.Add(0, ev)
	}
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlockAll, Win: 1}, 2))
}

// Win_flush(1) completes only the operations to rank 1: later overlaps
// with them are clean, overlaps with the operation to rank 2 still
// conflict — on the target, and between a Get origin (a write side) and a
// Put origin (a read side), and between a store and a Put origin.
func TestIntraIndexFlushTarget(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	lockAllEpoch(b,
		rma(trace.KindPut, 1, 1, 0x500, 0, 11),
		rma(trace.KindPut, 1, 2, 0x504, 0, 12),
		flushEv(trace.KindWinFlush, 1, 13),
		rma(trace.KindPut, 1, 1, 0x508, 0, 14),  // flushed 11 only
		rma(trace.KindPut, 1, 2, 0x50c, 0, 15),  // target of 12
		rma(trace.KindGet, 1, 1, 0x504, 0, 16),  // origin of 12, target of 14
		accessEv(trace.KindStore, 0x500, 4, 17), // origin of flushed 11
		accessEv(trace.KindStore, 0x508, 4, 18), // origin of 14
	)
	wantPairs(t, intraAgree(t, b.Set()), "12-15", "12-16", "14-16", "14-18")
}

// Win_flush_all completes everything pending.
func TestIntraIndexFlushAll(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	lockAllEpoch(b,
		rma(trace.KindGet, 1, 1, 0x500, 0, 21),
		rma(trace.KindPut, 1, 2, 0x600, 8, 22),
		flushEv(trace.KindWinFlush, -1, 23),
		accessEv(trace.KindLoad, 0x500, 4, 24),
		rma(trace.KindPut, 1, 2, 0x700, 8, 25),
		rma(trace.KindGet, 1, 1, 0x600, 16, 26),
		accessEv(trace.KindStore, 0x600, 4, 27),
	)
	wantPairs(t, intraAgree(t, b.Set()), "26-27")
}

// Win_flush_local completes local buffers only: a store over the flushed
// origin is clean, but a Put over the flushed-local operation's target
// still conflicts, and so do accesses to the local buffers of operations
// to other ranks until a flush_local_all.
func TestIntraIndexFlushLocal(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 256)
	lockAllEpoch(b,
		rma(trace.KindPut, 1, 1, 0x500, 0, 31),
		rma(trace.KindGet, 1, 2, 0x540, 0, 32),
		flushEv(trace.KindWinFlushLocal, 1, 33),
		accessEv(trace.KindStore, 0x500, 4, 34), // origin of 31, completed
		rma(trace.KindPut, 1, 1, 0x580, 0, 35),  // target of 31, still pending
		accessEv(trace.KindStore, 0x540, 4, 36), // origin of 32, pending
		rma(trace.KindGet, 1, 1, 0x500, 100, 37),
		flushEv(trace.KindWinFlushLocal, -1, 38),
		accessEv(trace.KindLoad, 0x540, 4, 39),
		rma(trace.KindPut, 1, 2, 0x700, 0, 40), // target of 32
	)
	wantPairs(t, intraAgree(t, b.Set()), "31-35", "32-36", "32-40")
}

// Strided origin and target types have footprints of several intervals
// whose hulls interleave: accesses into the gaps are clean, accesses into
// the blocks conflict.
func TestIntraIndexStrided(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 256)
	b.Add(0, loc(trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase,
		TypeMap: stridedMap()}}, 1)) // 4 blocks of 8 bytes, every 16 bytes
	strided := func(kind trace.Kind, originType int32, originAddr uint64, targetType int32, disp uint64, line int32) trace.Event {
		return loc(trace.Event{Kind: kind, Win: 1, Target: 1,
			OriginAddr: originAddr, OriginType: originType, OriginCount: 1,
			TargetDisp: disp, TargetType: targetType, TargetCount: 1}, line)
	}
	user := trace.TypeUserBase
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 40))
	b.Add(0, strided(trace.KindGet, user, 0x500, user, 0, 41))
	b.Add(0, accessEv(trace.KindLoad, 0x508, 8, 42))  // gap
	b.Add(0, accessEv(trace.KindLoad, 0x518, 4, 43))  // gap
	b.Add(0, accessEv(trace.KindStore, 0x524, 4, 44)) // third block of 41's origin
	b.Add(0, strided(trace.KindPut, trace.TypeInt32, 0x600, trace.TypeInt32, 8, 45))
	b.Add(0, strided(trace.KindPut, trace.TypeInt64, 0x508, trace.TypeInt32, 40, 46))
	b.Add(0, strided(trace.KindPut, trace.TypeInt32, 0x700, user, 8, 47)) // blocks in 41's target gaps
	b.Add(0, strided(trace.KindGet, user, 0x504, trace.TypeInt32, 200, 48))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 49))
	wantPairs(t, intraAgree(t, b.Set()), "41-44", "45-47", "46-47", "41-48", "46-48")
}

// One Get into a large buffer makes the index's longest span long, so
// every later query scans back over the small spans within that length;
// the 1000 small Gets and loads that follow must still find exactly their
// own conflicts.
func TestIntraIndexLargeSpan(t *testing.T) {
	const small = 1000
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 8192)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 50))
	b.Add(0, loc(trace.Event{Kind: trace.KindGet, Win: 1, Target: 1,
		OriginAddr: 0x10000, OriginType: trace.TypeByte, OriginCount: 1 << 16,
		TargetDisp: 0, TargetType: trace.TypeByte, TargetCount: 8}, 51))
	for k := uint64(0); k < small; k++ {
		b.Add(0, rma(trace.KindGet, 1, 1, 0x40000+8*k, 64+4*k, 52))
		b.Add(0, accessEv(trace.KindLoad, 0x40000+8*k+4, 4, 53)) // between two small Gets
		switch k {
		case 500:
			b.Add(0, accessEv(trace.KindLoad, 0x10000+4000, 4, 54)) // in the large buffer
		case 700:
			b.Add(0, accessEv(trace.KindLoad, 0x40000+8*300, 2, 55)) // origin of small Get 300
		}
	}
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 56))
	wantPairs(t, intraAgree(t, b.Set()), "51-54", "52-55")
}

// Epochs of two windows open at once on one rank each see the local
// accesses between them, but only their own operations and flushes.
func TestIntraIndexTwoWindows(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.WinCreate(2, 0x3000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 61))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 2, Target: 1, Lock: trace.LockShared}, 62))
	b.Add(0, rma(trace.KindGet, 1, 1, 0x500, 0, 63))
	b.Add(0, rma(trace.KindPut, 2, 1, 0x500, 0, 64))
	b.Add(0, accessEv(trace.KindLoad, 0x500, 4, 65))
	b.Add(0, accessEv(trace.KindStore, 0x500, 4, 66))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinFlush, Win: 2, Target: 1}, 67))
	b.Add(0, accessEv(trace.KindStore, 0x500, 4, 68))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 69))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 2, Target: 1}, 70))
	wantPairs(t, intraAgree(t, b.Set()), "63-65", "63-66", "64-66", "63-68")
}

// A zero-count operation touches no bytes and conflicts with nothing.
func TestIntraIndexZeroCount(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	zero := rma(trace.KindPut, 1, 1, 0x500, 0, 71)
	zero.OriginCount, zero.TargetCount = 0, 0
	zeroGet := rma(trace.KindGet, 1, 1, 0x600, 0, 75)
	zeroGet.OriginCount, zeroGet.TargetCount = 0, 0
	b.Fence(1)
	b.Add(0, zero)
	b.Add(0, accessEv(trace.KindStore, 0x500, 4, 72))
	b.Add(0, rma(trace.KindPut, 1, 1, 0x600, 0, 73))
	b.Add(0, rma(trace.KindGet, 1, 1, 0x500, 0, 74))
	b.Add(0, zeroGet)
	b.Add(0, accessEv(trace.KindStore, 0x600, 4, 76))
	b.Fence(1)
	wantPairs(t, intraAgree(t, b.Set()), "73-74", "73-76")
}

// A datatype map whose extent is smaller than its span tiles into
// intervals out of address order unless the tiler sorts them; the overlap
// walk then misses conflicts. Every detector must report both the
// within-epoch conflict (a Get of two elements into 0x500, then a load of
// 0x508) and the cross-process one (a Put of two elements into rank 0's
// window, and rank 0's concurrent load of window byte +8), each with its
// overlapping bytes.
func TestUnsortedDatatypeMapConflicts(t *testing.T) {
	narrow := memory.DataMap{Segments: []memory.Segment{{Disp: 0, Len: 4}, {Disp: 12, Len: 4}}, Extent: 8}
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	for r := int32(0); r < 2; r++ {
		b.Add(r, loc(trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase, TypeMap: narrow}}, 1))
	}
	b.Fence(1)
	b.Add(0, loc(trace.Event{Kind: trace.KindGet, Win: 1, Target: 1,
		OriginAddr: 0x500, OriginType: trace.TypeUserBase, OriginCount: 2,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 4}, 81))
	b.Add(0, accessEv(trace.KindLoad, 0x508, 4, 82))
	b.Fence(1)
	b.Add(1, loc(trace.Event{Kind: trace.KindPut, Win: 1, Target: 0,
		OriginAddr: 0x700, OriginType: trace.TypeInt32, OriginCount: 4,
		TargetDisp: 0, TargetType: trace.TypeUserBase, TargetCount: 2}, 83))
	b.Add(0, accessEv(trace.KindLoad, 0x1008, 4, 84))
	b.Fence(1)
	set := b.Set()

	// Both conflicts overlap bytes, so each must carry its overlap.
	has := func(rep *Report, lineA, lineB int32) bool {
		for _, v := range rep.Violations {
			if v.A.Line == lineA && v.B.Line == lineB && !v.Overlap.Empty() {
				return true
			}
		}
		return false
	}
	intra := map[string]*Report{"reference": intraAgree(t, set)}
	var err error
	if intra["production"], err = AnalyzeWith(set, Options{IntraEpoch: true}); err != nil {
		t.Fatal(err)
	}
	for name, rep := range intra {
		if !has(rep, 81, 82) {
			t.Errorf("within-epoch %s: the Get/load conflict is missing:\n%s", name, rep)
		}
	}
	for name, rep := range crossDetectors(t, set) {
		if !has(rep, 83, 84) {
			t.Errorf("cross-process %s: the Put/load conflict is missing:\n%s", name, rep)
		}
	}
	if full, err := Analyze(set); err != nil {
		t.Fatal(err)
	} else if !has(full, 81, 82) || !has(full, 83, 84) {
		t.Errorf("full analysis misses a conflict:\n%s", full)
	}
}
