package core

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// buildPipeline runs preprocessing + matching + DAG construction.
func buildPipeline(t *testing.T, set *trace.Set) (*model.Model, *dag.DAG) {
	t.Helper()
	m, err := model.Build(set)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := match.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dag.Build(m, ms)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// Tests for the §IV-C-4 rule that point-to-point and collective calls
// accessing a local buffer participate in cross-process conflict detection
// like local loads and stores.

// sendRecvTrace builds: rank 0 puts into rank 1's window while rank 1
// concurrently uses overlapping window bytes as the buffer of a p2p or
// collective call of the given kind. tag 5 traffic between ranks 1 and 2
// makes the p2p call well-matched.
func msgBufTrace(kind trace.Kind, peerFill func(b *testutil.TraceBuilder)) *testutil.TraceBuilder {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared, File: "a.go", Line: 1})
	b.Add(0, trace.Event{Kind: trace.KindPut, Win: 1, Target: 1,
		OriginAddr: 0x500, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1, File: "a.go", Line: 2})
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1, File: "a.go", Line: 3})
	b.Add(1, trace.Event{Kind: kind, Comm: 0, Peer: 2, Tag: 5,
		OriginAddr: 0x1000, OriginType: trace.TypeInt32, OriginCount: 1, File: "a.go", Line: 4})
	if peerFill != nil {
		peerFill(b)
	}
	return b
}

func TestRecvBufferInWindowConflictsWithPut(t *testing.T) {
	// Rank 1 receives INTO its window bytes while rank 0's Put lands there:
	// Put × Store(recv) — conflict.
	b := msgBufTrace(trace.KindRecv, func(b *testutil.TraceBuilder) {
		b.Add(2, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 5,
			OriginAddr: 0x900, OriginType: trace.TypeInt32, OriginCount: 1, File: "a.go", Line: 9})
	})
	// Adjust: the Recv's Peer must be its source (rank 2).
	rep, err := Analyze(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 {
		t.Fatalf("errors = %d:\n%s", len(rep.Errors()), rep)
	}
	v := rep.Errors()[0]
	if v.A.Kind != trace.KindPut || v.B.Kind != trace.KindRecv {
		t.Errorf("pair = %v,%v", v.A.Kind, v.B.Kind)
	}
}

func TestSendBufferInWindowConflictsWithPut(t *testing.T) {
	// Rank 1 sends FROM its window bytes while rank 0's Put lands there:
	// Put × Load(send) — conflict on overlap.
	b := msgBufTrace(trace.KindSend, func(b *testutil.TraceBuilder) {
		b.Add(2, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: 1, Tag: 5,
			OriginAddr: 0x900, OriginType: trace.TypeInt32, OriginCount: 1, File: "a.go", Line: 9})
	})
	rep, err := Analyze(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 {
		t.Fatalf("errors = %d:\n%s", len(rep.Errors()), rep)
	}
	if rep.Errors()[0].B.Kind != trace.KindSend {
		t.Errorf("pair = %v", rep.Errors()[0])
	}
}

func TestSendBufferDisjointFromPutIsFine(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared, File: "a.go", Line: 1})
	b.Add(0, trace.Event{Kind: trace.KindPut, Win: 1, Target: 1,
		OriginAddr: 0x500, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1, File: "a.go", Line: 2})
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1, File: "a.go", Line: 3})
	// Send from window bytes [0x1020,0x1024): disjoint from the Put.
	b.Add(1, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 2, Tag: 5,
		OriginAddr: 0x1020, OriginType: trace.TypeInt32, OriginCount: 1, File: "a.go", Line: 4})
	b.Add(2, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: 1, Tag: 5,
		OriginAddr: 0x900, OriginType: trace.TypeInt32, OriginCount: 1, File: "a.go", Line: 9})
	rep, err := Analyze(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("disjoint send buffer flagged:\n%s", rep)
	}
}

func TestBcastBufferClass(t *testing.T) {
	// Root's Bcast buffer is read (Load class): vs a remote Get it is fine;
	// a non-root's Bcast buffer is written (Store class): vs a remote Get
	// on overlapping bytes it conflicts.
	build := func(root int32) *testutil.TraceBuilder {
		b := testutil.NewTraceBuilder(3)
		b.WinCreate(1, 0x1000, 64)
		b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared, File: "a.go", Line: 1})
		b.Add(0, trace.Event{Kind: trace.KindGet, Win: 1, Target: 1,
			OriginAddr: 0x600, OriginType: trace.TypeInt32, OriginCount: 1,
			TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1, File: "a.go", Line: 2})
		b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1, File: "a.go", Line: 3})
		// All three ranks join a Bcast; rank 1's buffer is its window base.
		for r := int32(0); r < 3; r++ {
			addr := uint64(0x700)
			if r == 1 {
				addr = 0x1000
			}
			b.Add(r, trace.Event{Kind: trace.KindBcast, Comm: 0, Peer: root,
				OriginAddr: addr, OriginType: trace.TypeInt32, OriginCount: 1, File: "a.go", Line: 10 + int32(r)})
		}
		return b
	}

	// Rank 1 is the root: its buffer is only read → Load × Get = BOTH.
	rep, err := Analyze(build(1).Set())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("root bcast buffer flagged vs Get:\n%s", rep)
	}

	// Rank 0 is the root of a sub-communicator bcast {0,1}: rank 1's buffer
	// (window bytes) is written → Store × Get conflict with rank 2's
	// concurrent Get. Rank 2 is outside the bcast, so no happens-before
	// edge orders the two.
	b2 := testutil.NewTraceBuilder(3)
	b2.WinCreate(1, 0x1000, 64)
	b2.Add(0, trace.Event{Kind: trace.KindCommCreate, Comm: 7, Def: &trace.Def{Members: []int32{0, 1}}, File: "a.go", Line: 20})
	b2.Add(1, trace.Event{Kind: trace.KindCommCreate, Comm: 7, Def: &trace.Def{Members: []int32{0, 1}}, File: "a.go", Line: 20})
	b2.Add(2, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared, File: "a.go", Line: 1})
	b2.Add(2, trace.Event{Kind: trace.KindGet, Win: 1, Target: 1,
		OriginAddr: 0x600, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1, File: "a.go", Line: 2})
	b2.Add(2, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1, File: "a.go", Line: 3})
	b2.Add(0, trace.Event{Kind: trace.KindBcast, Comm: 7, Peer: 0,
		OriginAddr: 0x700, OriginType: trace.TypeInt32, OriginCount: 1, File: "a.go", Line: 10})
	b2.Add(1, trace.Event{Kind: trace.KindBcast, Comm: 7, Peer: 0,
		OriginAddr: 0x1000, OriginType: trace.TypeInt32, OriginCount: 1, File: "a.go", Line: 11})
	rep, err = Analyze(b2.Set())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 {
		t.Fatalf("non-root bcast buffer vs Get: errors = %d:\n%s", len(rep.Errors()), rep)
	}
	if rep.Errors()[0].B.Kind != trace.KindBcast {
		t.Errorf("pair = %v", rep.Errors()[0])
	}
}

func TestQuadraticAgreesOnMessageBuffers(t *testing.T) {
	b := msgBufTrace(trace.KindRecv, func(b *testutil.TraceBuilder) {
		b.Add(2, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 5,
			OriginAddr: 0x900, OriginType: trace.TypeInt32, OriginCount: 1, File: "a.go", Line: 9})
	})
	set := b.Set()
	lin, err := AnalyzeWith(set, Options{CrossProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	m, d := buildPipeline(t, set)
	quad, err := QuadraticCrossProcess(m, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(lin.Violations) != len(quad.Violations) {
		t.Errorf("linear %d vs quadratic %d:\n%s\n%s", len(lin.Violations), len(quad.Violations), lin, quad)
	}
}

// TestThirdRankMessageChainOrdersPut pins that synchronization through a
// third rank is captured, not treated conservatively: rank 0's locked Put
// into rank 1's window is ordered before rank 1's load of the same bytes
// only by the messages 0 → 2 → 1, and the checker reports nothing. The
// same trace without the two messages reports the conflict.
func TestThirdRankMessageChainOrdersPut(t *testing.T) {
	build := func(chain bool) *trace.Set {
		b := testutil.NewTraceBuilder(3)
		b.WinCreate(1, 0x1000, 64)
		b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared, File: "a.go", Line: 1})
		b.Add(0, trace.Event{Kind: trace.KindPut, Win: 1, Target: 1,
			OriginAddr: 0x500, OriginType: trace.TypeInt32, OriginCount: 1,
			TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1, File: "a.go", Line: 2})
		b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1, File: "a.go", Line: 3})
		if chain {
			msg := func(kind trace.Kind, rank, peer, tag, line int32) {
				b.Add(rank, trace.Event{Kind: kind, Comm: 0, Peer: peer, Tag: tag,
					OriginAddr: 0x900, OriginType: trace.TypeInt32, OriginCount: 1, File: "a.go", Line: line})
			}
			msg(trace.KindSend, 0, 2, 7, 4)
			msg(trace.KindRecv, 2, 0, 7, 5)
			msg(trace.KindSend, 2, 1, 8, 6)
			msg(trace.KindRecv, 1, 2, 8, 7)
		}
		b.Add(1, trace.Event{Kind: trace.KindLoad, Addr: 0x1000, Size: 4, File: "a.go", Line: 8})
		return b.Set()
	}
	for _, chain := range []bool{true, false} {
		rep, err := Analyze(build(chain))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(rep.Errors()), map[bool]int{true: 0, false: 1}[chain]; got != want {
			t.Errorf("message chain %v: %d errors, want %d:\n%s", chain, got, want, rep)
		}
	}
}
