package core

import (
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// loc stamps a fake source location so violations deduplicate correctly.
func loc(ev trace.Event, line int32) trace.Event {
	ev.File = "app.go"
	ev.Line = line
	return ev
}

func analyze(t *testing.T, b *testutil.TraceBuilder) *Report {
	t.Helper()
	rep, err := Analyze(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func onlyViolation(t *testing.T, rep *Report) *Violation {
	t.Helper()
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %d:\n%s", len(rep.Violations), rep)
	}
	return rep.Violations[0]
}

// putEv builds a Put of 4 bytes to win 1 target `target` at disp.
func putEv(target int32, originAddr uint64, disp uint64, line int32) trace.Event {
	return loc(trace.Event{Kind: trace.KindPut, Win: 1, Target: target,
		OriginAddr: originAddr, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: disp, TargetType: trace.TypeInt32, TargetCount: 1}, line)
}

func getEv(target int32, originAddr uint64, disp uint64, line int32) trace.Event {
	return loc(trace.Event{Kind: trace.KindGet, Win: 1, Target: target,
		OriginAddr: originAddr, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: disp, TargetType: trace.TypeInt32, TargetCount: 1}, line)
}

func accEv(target int32, originAddr uint64, disp uint64, op trace.AccOp, line int32) trace.Event {
	return loc(trace.Event{Kind: trace.KindAccumulate, Win: 1, Target: target, AccOp: op,
		OriginAddr: originAddr, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: disp, TargetType: trace.TypeInt32, TargetCount: 1}, line)
}

// TestFigure2a: store to the origin buffer of a pending Put within one
// epoch (the ADLB/GFMC bug class).
func TestFigure2a(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, putEv(1, 0x500, 0, 10))
	b.Add(0, loc(trace.Event{Kind: trace.KindStore, Addr: 0x500, Size: 4}, 11))
	b.Fence(1)
	rep := analyze(t, b)
	v := onlyViolation(t, rep)
	if v.Class != WithinEpoch || v.Severity != SevError {
		t.Errorf("violation = %v", v)
	}
	if v.A.Kind != trace.KindPut || v.B.Kind != trace.KindStore {
		t.Errorf("pair = %v, %v", v.A.Kind, v.B.Kind)
	}
	if !strings.Contains(v.Rule, "origin buffer") {
		t.Errorf("rule = %q", v.Rule)
	}
}

// TestFigure1: load of the origin buffer of a pending Get (the
// BT-broadcast infinite-loop bug).
func TestFigure1(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 1))
	b.Add(0, getEv(1, 0x500, 0, 5))
	b.Add(0, loc(trace.Event{Kind: trace.KindLoad, Addr: 0x500, Size: 4}, 4))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 8))
	rep := analyze(t, b)
	v := onlyViolation(t, rep)
	if v.Class != WithinEpoch || v.A.Kind != trace.KindGet || v.B.Kind != trace.KindLoad {
		t.Errorf("violation = %v", v)
	}
	// Diagnostics point at the conflicting lines (paper: lines 4 and 5).
	if v.A.Line != 5 || v.B.Line != 4 {
		t.Errorf("lines = %d, %d", v.A.Line, v.B.Line)
	}
}

// Loads of a Put origin are permitted; accesses after the epoch closes are
// ordered and safe.
func TestIntraEpochNegatives(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, putEv(1, 0x500, 0, 10))
	b.Add(0, loc(trace.Event{Kind: trace.KindLoad, Addr: 0x500, Size: 4}, 11)) // load of put origin: OK
	b.Fence(1)
	b.Add(0, loc(trace.Event{Kind: trace.KindStore, Addr: 0x500, Size: 4}, 12)) // after close: OK
	b.Fence(1)
	rep := analyze(t, b)
	if len(rep.Violations) != 0 {
		t.Errorf("unexpected violations:\n%s", rep)
	}
}

// A store before the Put is issued is program-ordered and safe.
func TestStoreBeforePutIsFine(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, loc(trace.Event{Kind: trace.KindStore, Addr: 0x500, Size: 4}, 9))
	b.Add(0, putEv(1, 0x500, 0, 10))
	b.Fence(1)
	rep := analyze(t, b)
	if len(rep.Violations) != 0 {
		t.Errorf("unexpected violations:\n%s", rep)
	}
}

// Two Gets into the same origin buffer in one epoch conflict.
func TestTwoGetsSameOrigin(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, getEv(1, 0x500, 0, 20))
	b.Add(0, getEv(1, 0x500, 8, 21))
	b.Fence(1)
	rep := analyze(t, b)
	v := onlyViolation(t, rep)
	if !strings.Contains(v.Rule, "origin buffer") {
		t.Errorf("rule = %q", v.Rule)
	}
}

// Two Puts to overlapping target regions within one epoch conflict
// (Put×Put is NON-OV in Table I).
func TestTwoPutsSameTargetIntraEpoch(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, putEv(1, 0x500, 0, 30))
	b.Add(0, putEv(1, 0x600, 0, 31)) // same target disp, different origin
	b.Fence(1)
	rep := analyze(t, b)
	v := onlyViolation(t, rep)
	if !strings.Contains(v.Rule, "target regions") {
		t.Errorf("rule = %q", v.Rule)
	}
}

// Non-overlapping puts in one epoch are fine.
func TestDisjointPutsFine(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, putEv(1, 0x500, 0, 30))
	b.Add(0, putEv(1, 0x600, 8, 31))
	b.Fence(1)
	rep := analyze(t, b)
	if len(rep.Violations) != 0 {
		t.Errorf("unexpected violations:\n%s", rep)
	}
}

// TestFigure2b: concurrent Puts from two origins to the same window region
// of a third process in an active-target (fence) epoch.
func TestFigure2b(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, putEv(1, 0x500, 0, 40))
	b.Add(2, putEv(1, 0x700, 0, 42))
	b.Fence(1)
	rep := analyze(t, b)
	v := onlyViolation(t, rep)
	if v.Class != AcrossProcesses || v.Severity != SevError {
		t.Errorf("violation = %v", v)
	}
	if v.A.Rank == v.B.Rank {
		t.Error("conflict must span processes")
	}
}

// TestFigure2c: concurrent Put and Get on overlapping window bytes in a
// passive-target epoch.
func TestFigure2c(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 2, Lock: trace.LockShared}, 50))
	b.Add(0, putEv(2, 0x500, 0, 51))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 2}, 52))
	b.Add(1, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 2, Lock: trace.LockShared}, 53))
	b.Add(1, getEv(2, 0x600, 0, 54))
	b.Add(1, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 2}, 55))
	rep := analyze(t, b)
	v := onlyViolation(t, rep)
	if v.Class != AcrossProcesses {
		t.Errorf("violation = %v", v)
	}
	kinds := map[trace.Kind]bool{v.A.Kind: true, v.B.Kind: true}
	if !kinds[trace.KindPut] || !kinds[trace.KindGet] {
		t.Errorf("pair = %v,%v", v.A.Kind, v.B.Kind)
	}
}

// TestFigure2d: a Put from the origin conflicting with a local store at
// the target process.
func TestFigure2d(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 60))
	b.Add(0, putEv(1, 0x500, 0, 61))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 62))
	b.Add(1, loc(trace.Event{Kind: trace.KindStore, Addr: 0x1000, Size: 4}, 63))
	rep := analyze(t, b)
	v := onlyViolation(t, rep)
	if v.Class != AcrossProcesses || v.Severity != SevError {
		t.Errorf("violation = %v", v)
	}
	if v.A.Kind != trace.KindPut || v.B.Kind != trace.KindStore {
		t.Errorf("pair = %v,%v", v.A.Kind, v.B.Kind)
	}
}

// Two windows expose the same buffer; the remote Put goes through the
// second one. The local store must be checked against every window it
// touches, so the production detector and both reference detectors report
// the conflict on every run, not only when the second window happens to be
// found first.
func TestOverlappingWindowsLocalConflict(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.WinCreate(2, 0x1000, 64)
	b.Add(1, loc(trace.Event{Kind: trace.KindWinLock, Win: 2, Target: 0, Lock: trace.LockShared}, 60))
	put := putEv(0, 0x500, 0, 61)
	put.Win = 2
	b.Add(1, put)
	b.Add(1, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 2, Target: 0}, 62))
	b.Add(0, loc(trace.Event{Kind: trace.KindStore, Addr: 0x1000, Size: 4}, 63))
	set := b.Set()

	check := func(name string, rep *Report) {
		t.Helper()
		if len(rep.Violations) != 1 {
			t.Fatalf("%s: violations = %d:\n%s", name, len(rep.Violations), rep)
		}
		v := rep.Violations[0]
		if v.Class != AcrossProcesses || v.A.Kind != trace.KindPut || v.B.Kind != trace.KindStore || v.Win != 2 {
			t.Fatalf("%s: violation = %v", name, v)
		}
	}
	for run := 0; run < 50; run++ {
		for name, rep := range crossDetectors(t, set) {
			check(name, rep)
		}
	}
}

// crossDetectors runs the production cross-process detector and both
// reference detectors over set, keyed by name.
func crossDetectors(t *testing.T, set *trace.Set) map[string]*Report {
	t.Helper()
	prod, err := AnalyzeWith(set, Options{CrossProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	m, d := buildPipeline(t, set)
	pw, err := PairwiseCrossProcess(m, d)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := QuadraticCrossProcess(m, d)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Report{"production": prod, "pairwise": pw, "all-pairs": quad}
}

// A Get whose strided origin buffer (four 8-byte blocks) lies inside its
// own window races a remote Put covering the whole window. The origin
// footprint has four intervals in one window, yet the access is one
// occurrence: every detector must count it once.
func TestStridedOriginCountedOnce(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase,
		TypeMap: stridedMap()}}, 1))
	b.Fence(1)
	b.Add(0, loc(trace.Event{Kind: trace.KindGet, Win: 1, Target: 1,
		OriginAddr: 0x1000, OriginType: trace.TypeUserBase, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1}, 10))
	b.Add(1, loc(trace.Event{Kind: trace.KindPut, Win: 1, Target: 0,
		OriginAddr: 0x500, OriginType: trace.TypeByte, OriginCount: 64,
		TargetDisp: 0, TargetType: trace.TypeByte, TargetCount: 64}, 11))
	b.Fence(1)
	set := b.Set()

	for name, rep := range crossDetectors(t, set) {
		var local *Violation
		for _, v := range rep.Violations {
			if v.A.Kind == trace.KindPut && v.B.Kind == trace.KindGet {
				local = v
			}
		}
		if local == nil {
			t.Fatalf("%s: the Get origin buffer conflict is missing:\n%s", name, rep)
		}
		if local.Count != 1 {
			t.Errorf("%s: count = %d, want 1:\n%s", name, local.Count, rep)
		}
	}
}

// The store rule fires even without byte overlap when the store touches
// the exposed window (paper §IV-C-4).
func TestStoreRuleWithoutOverlap(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 70))
	b.Add(0, putEv(1, 0x500, 0, 71)) // writes window bytes [0x1000,0x1004)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 72))
	b.Add(1, loc(trace.Event{Kind: trace.KindStore, Addr: 0x1020, Size: 4}, 73)) // disjoint bytes, same window
	rep := analyze(t, b)
	v := onlyViolation(t, rep)
	if !v.Overlap.Empty() {
		t.Errorf("overlap should be empty: %v", v.Overlap)
	}
	if !strings.Contains(v.Rule, "without overlap") {
		t.Errorf("rule = %q", v.Rule)
	}
}

// A local load at the target vs a remote Get is permitted (Load×Get BOTH);
// vs a remote Put it conflicts only on overlap.
func TestLocalLoadRules(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 80))
	b.Add(0, getEv(1, 0x500, 0, 81))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 82))
	b.Add(1, loc(trace.Event{Kind: trace.KindLoad, Addr: 0x1000, Size: 4}, 83))
	rep := analyze(t, b)
	if len(rep.Violations) != 0 {
		t.Errorf("load vs get must be fine:\n%s", rep)
	}

	b = testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 84))
	b.Add(0, putEv(1, 0x500, 0, 85))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 86))
	b.Add(1, loc(trace.Event{Kind: trace.KindLoad, Addr: 0x1000, Size: 4}, 87))
	rep = analyze(t, b)
	if len(rep.Violations) != 1 {
		t.Errorf("load vs put overlap must conflict:\n%s", rep)
	}

	// Disjoint load vs put: fine.
	b = testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 88))
	b.Add(0, putEv(1, 0x500, 0, 89))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 90))
	b.Add(1, loc(trace.Event{Kind: trace.KindLoad, Addr: 0x1020, Size: 4}, 91))
	rep = analyze(t, b)
	if len(rep.Violations) != 0 {
		t.Errorf("disjoint load vs put must be fine:\n%s", rep)
	}
}

// Synchronization separating the operations removes the conflict.
func TestBarrierOrdersConflictAway(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 100))
	b.Add(0, putEv(1, 0x500, 0, 101))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 102))
	b.Barrier()
	b.Add(1, loc(trace.Event{Kind: trace.KindStore, Addr: 0x1000, Size: 4}, 103))
	rep := analyze(t, b)
	if len(rep.Violations) != 0 {
		t.Errorf("barrier-separated ops must not conflict:\n%s", rep)
	}
}

// Same-operation accumulates may overlap; different operations conflict.
func TestAccumulateException(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, accEv(1, 0x500, 0, trace.OpSum, 110))
	b.Add(2, accEv(1, 0x700, 0, trace.OpSum, 112))
	b.Fence(1)
	rep := analyze(t, b)
	if len(rep.Violations) != 0 {
		t.Errorf("same-op accumulates must be exempt:\n%s", rep)
	}

	b = testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, accEv(1, 0x500, 0, trace.OpSum, 113))
	b.Add(2, accEv(1, 0x700, 0, trace.OpProd, 114))
	b.Fence(1)
	rep = analyze(t, b)
	if len(rep.Violations) != 1 {
		t.Errorf("different-op accumulates must conflict:\n%s", rep)
	}
}

// Conflicts fully serialized by exclusive locks are reported as warnings
// (the original lockopts bug, paper §VII-A-2).
func TestExclusiveLockWarning(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 2, Lock: trace.LockExclusive}, 120))
	b.Add(0, putEv(2, 0x500, 0, 121))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 2}, 122))
	b.Add(1, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 2, Lock: trace.LockExclusive}, 123))
	b.Add(1, putEv(2, 0x600, 0, 124))
	b.Add(1, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 2}, 125))
	rep := analyze(t, b)
	v := onlyViolation(t, rep)
	if v.Severity != SevWarning {
		t.Errorf("severity = %v, want WARNING", v.Severity)
	}
	if len(rep.Warnings()) != 1 || len(rep.Errors()) != 0 {
		t.Error("warning/error split wrong")
	}
}

// Repeated conflicts from the same source lines fold into one violation.
func TestDeduplication(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	for i := 0; i < 5; i++ {
		b.Add(0, putEv(1, 0x500, 0, 130))
		b.Add(0, loc(trace.Event{Kind: trace.KindStore, Addr: 0x500, Size: 4}, 131))
		b.Fence(1)
	}
	rep := analyze(t, b)
	v := onlyViolation(t, rep)
	if v.Count != 5 {
		t.Errorf("count = %d, want 5", v.Count)
	}
}

// The SyncChecker baseline configuration (intra-epoch only) misses
// cross-process errors — the comparison of paper §VII.
func TestIntraOnlyMissesCrossProcess(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, putEv(1, 0x500, 0, 140))
	b.Add(2, putEv(1, 0x700, 0, 142))
	b.Fence(1)
	rep, err := AnalyzeWith(b.Set(), Options{IntraEpoch: true, CrossProcess: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("intra-only must miss the cross-process bug:\n%s", rep)
	}
	// Full analysis finds it.
	rep, err = AnalyzeWith(b.Set(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Errorf("full analysis must find it:\n%s", rep)
	}
}

// Origin-buffer accesses of RMA calls act as local accesses across
// processes: a remote Put hitting window bytes that another rank is
// concurrently using as a Get origin (i.e. writing) conflicts.
func TestRMAOriginAsLocalAccess(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	// Window at every rank covers [0x1000,0x1040).
	b.WinCreate(1, 0x1000, 64)
	// Rank 1 gets from rank 2 INTO its own window memory (origin buffer
	// inside rank 1's window).
	b.Add(1, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 2, Lock: trace.LockShared}, 150))
	b.Add(1, getEv(2, 0x1000, 0, 151))
	b.Add(1, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 2}, 152))
	// Rank 0 concurrently puts into rank 1's window at the same bytes.
	b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 153))
	b.Add(0, putEv(1, 0x500, 0, 154))
	b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 155))
	rep := analyze(t, b)
	if len(rep.Violations) != 1 {
		t.Fatalf("violations:\n%s", rep)
	}
	if !strings.Contains(rep.Violations[0].Rule, "Store") && !strings.Contains(rep.Violations[0].Rule, "local") {
		t.Errorf("rule = %q", rep.Violations[0].Rule)
	}
}

// Strided (derived-datatype) footprints: two interleaved vector types that
// never touch the same bytes do not conflict; shifting one by an element
// creates byte overlap and a conflict. Exercises the data-map overlap
// machinery on the cross-process path.
func TestStridedFootprintPrecision(t *testing.T) {
	// User type 100 on each origin rank: 4 elements of 8 bytes, stride 16.
	defType := func(b *testutil.TraceBuilder, rank int32) {
		b.Add(rank, loc(trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase,
			TypeMap: stridedMap()}}, 1))
	}
	stridedPut := func(rank int32, disp uint64, line int32) trace.Event {
		return loc(trace.Event{Kind: trace.KindPut, Win: 1, Target: 2,
			OriginAddr: 0x500, OriginType: trace.TypeFloat64, OriginCount: 4,
			TargetDisp: disp, TargetType: trace.TypeUserBase, TargetCount: 1}, line)
	}

	// Interleaved: rank 0 writes offsets {0,16,32,48}, rank 1 writes
	// {8,24,40,56} — no byte overlaps.
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 128)
	defType(b, 0)
	defType(b, 1)
	b.Fence(1)
	b.Add(0, stridedPut(0, 0, 10))
	b.Add(1, stridedPut(1, 8, 11))
	b.Fence(1)
	rep := analyze(t, b)
	if len(rep.Violations) != 0 {
		t.Errorf("interleaved strided puts flagged:\n%s", rep)
	}

	// Aligned: both write {0,16,32,48} — conflict.
	b = testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 128)
	defType(b, 0)
	defType(b, 1)
	b.Fence(1)
	b.Add(0, stridedPut(0, 0, 20))
	b.Add(1, stridedPut(1, 0, 21))
	b.Fence(1)
	rep = analyze(t, b)
	if len(rep.Errors()) != 1 {
		t.Errorf("aligned strided puts: errors = %d\n%s", len(rep.Errors()), rep)
	}
}

func stridedMap() (dm memory.DataMap) {
	for e := 0; e < 4; e++ {
		dm.Segments = append(dm.Segments, memory.Segment{Disp: uint64(e) * 16, Len: 8})
	}
	dm.Extent = 64
	return dm
}

func TestReportString(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, putEv(1, 0x500, 0, 160))
	b.Add(0, loc(trace.Event{Kind: trace.KindStore, Addr: 0x500, Size: 4}, 161))
	b.Fence(1)
	rep := analyze(t, b)
	s := rep.String()
	for _, want := range []string{"1 memory consistency issue", "ERROR", "within-epoch", "app.go:160", "app.go:161"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}

	empty := &Report{}
	if !strings.Contains(empty.String(), "no memory consistency errors") {
		t.Error("empty report text wrong")
	}
}
