package core

import (
	"testing"

	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func extract(t *testing.T, b *testutil.TraceBuilder) ([]*Epoch, map[trace.ID]*Epoch) {
	t.Helper()
	m, err := model.Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	epochs, opEpoch, err := ExtractEpochs(m)
	if err != nil {
		t.Fatal(err)
	}
	return epochs, opEpoch
}

func put(win, target int32) trace.Event {
	return trace.Event{Kind: trace.KindPut, Win: win, Target: target,
		OriginAddr: 0x100, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1}
}

func TestFenceEpochs(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	p1 := b.Add(0, put(1, 1))
	b.Fence(1)
	p2 := b.Add(0, put(1, 1))
	b.Fence(1)
	epochs, opEpoch := extract(t, b)

	// Rank 0 has 3 fence epochs (the last closed at trace end), ranks 1 has 3 empty ones.
	var rank0 []*Epoch
	for _, e := range epochs {
		if e.Rank == 0 && e.Kind == EpochFence {
			rank0 = append(rank0, e)
		}
	}
	if len(rank0) != 3 {
		t.Fatalf("rank 0 fence epochs = %d", len(rank0))
	}
	if opEpoch[p1] == opEpoch[p2] {
		t.Error("puts in different fence epochs share an epoch")
	}
	if len(opEpoch[p1].Ops) != 1 || opEpoch[p1].Ops[0] != p1 {
		t.Errorf("epoch ops = %v", opEpoch[p1].Ops)
	}
}

func TestLockEpochs(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared})
	pa := b.Add(0, put(1, 1))
	// Nested lock to a different target is legal.
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 2, Lock: trace.LockExclusive})
	pb := b.Add(0, put(1, 2))
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 2})
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1})
	epochs, opEpoch := extract(t, b)

	ea, eb := opEpoch[pa], opEpoch[pb]
	if ea == nil || eb == nil || ea == eb {
		t.Fatalf("lock epochs not separated: %v %v", ea, eb)
	}
	if ea.Kind != EpochLockShared || ea.Target != 1 {
		t.Errorf("epoch a = %v", ea)
	}
	if eb.Kind != EpochLockExclusive || eb.Target != 2 {
		t.Errorf("epoch b = %v", eb)
	}
	count := 0
	for _, e := range epochs {
		if e.Rank == 0 && (e.Kind == EpochLockShared || e.Kind == EpochLockExclusive) {
			count++
		}
	}
	if count != 2 {
		t.Errorf("lock epochs = %d", count)
	}
}

func TestPSCWEpochs(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinPost, Win: 1, Def: &trace.Def{Members: []int32{1}}})
	b.Add(1, trace.Event{Kind: trace.KindWinStart, Win: 1, Def: &trace.Def{Members: []int32{0}}})
	p := b.Add(1, put(1, 0))
	b.Add(1, trace.Event{Kind: trace.KindWinComplete, Win: 1})
	b.Add(0, trace.Event{Kind: trace.KindWinWait, Win: 1})
	_, opEpoch := extract(t, b)
	e := opEpoch[p]
	if e == nil || e.Kind != EpochPSCW || e.Rank != 1 {
		t.Fatalf("pscw epoch = %v", e)
	}
}

func TestEpochErrors(t *testing.T) {
	// RMA op with no epoch at all.
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, put(1, 1))
	m, err := model.Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExtractEpochs(m); err == nil {
		t.Error("op outside epoch must error")
	}

	// Unlock without lock.
	b = testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1})
	m, _ = model.Build(b.Set())
	if _, _, err := ExtractEpochs(m); err == nil {
		t.Error("unlock without lock must error")
	}

	// Double lock of the same target.
	b = testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared})
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared})
	m, _ = model.Build(b.Set())
	if _, _, err := ExtractEpochs(m); err == nil {
		t.Error("double lock must error")
	}
}

func TestTruncatedEpochClosedAtTraceEnd(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared})
	p := b.Add(0, put(1, 1))
	// No unlock: trace truncated (e.g. crashed run).
	_, opEpoch := extract(t, b)
	e := opEpoch[p]
	if e == nil {
		t.Fatal("truncated epoch lost its op")
	}
	if e.End != 3 { // trace length of rank 0
		t.Errorf("truncated epoch end = %d", e.End)
	}
}

// Epochs left open at the end of a truncated trace close in the order
// they opened. Here two lock epochs of rank 0 on one window stay open,
// each with a Get and a load of its origin buffer from the same source
// lines, so their within-epoch violations share a dedup key and the
// epoch checked first supplies the reported instance: every run must
// report the same one.
func TestTruncatedEpochsCloseInOpeningOrder(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	for _, target := range []int32{1, 2} {
		origin := 0x500 + 0x100*uint64(target)
		b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: target, Lock: trace.LockShared,
			File: "app.go", Line: 1})
		b.Add(0, trace.Event{Kind: trace.KindGet, Win: 1, Target: target,
			OriginAddr: origin, OriginType: trace.TypeInt32, OriginCount: 1,
			TargetType: trace.TypeInt32, TargetCount: 1, File: "app.go", Line: 2})
		b.Add(0, trace.Event{Kind: trace.KindLoad, Addr: origin, Size: 4, File: "app.go", Line: 3})
	}
	set := b.Set()
	var first string
	for i := 0; i < 200; i++ {
		rep, err := AnalyzeWith(set, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 1 || rep.Violations[0].Count != 2 {
			t.Fatalf("want one violation seen twice, got:\n%s", rep)
		}
		if v := rep.Violations[0]; v.Overlap.Lo != 0x600 {
			t.Fatalf("reported the instance of the later epoch (overlap %v)", v.Overlap)
		}
		got := rep.String()
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d report differs:\n%s\nfirst run:\n%s", i, got, first)
		}
	}
}
