package dag

import (
	"testing"

	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func buildDAG(t *testing.T, b *testutil.TraceBuilder) *DAG {
	t.Helper()
	m, err := model.Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := match.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(m, ms)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProgramOrder(t *testing.T) {
	b := testutil.NewTraceBuilder(1)
	a := b.Add(0, trace.Event{Kind: trace.KindLoad, Addr: 1, Size: 1})
	c := b.Add(0, trace.Event{Kind: trace.KindStore, Addr: 1, Size: 1})
	d := buildDAG(t, b)
	if !d.HappensBefore(a, c) || d.HappensBefore(c, a) {
		t.Error("program order broken")
	}
	if d.Concurrent(a, c) || d.Concurrent(a, a) {
		t.Error("same-rank events are never concurrent")
	}
}

func TestSendRecvEdge(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	before := b.Add(0, trace.Event{Kind: trace.KindStore, Addr: 1, Size: 1})
	send := b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 0})
	after0 := b.Add(0, trace.Event{Kind: trace.KindStore, Addr: 2, Size: 1})
	pre1 := b.Add(1, trace.Event{Kind: trace.KindStore, Addr: 3, Size: 1})
	recv := b.Add(1, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: 0, Tag: 0})
	after1 := b.Add(1, trace.Event{Kind: trace.KindStore, Addr: 4, Size: 1})
	d := buildDAG(t, b)

	if !d.HappensBefore(send, recv) {
		t.Error("send must happen-before recv")
	}
	if !d.HappensBefore(before, after1) {
		t.Error("hb must be transitive through the message")
	}
	if d.HappensBefore(after0, after1) {
		t.Error("event after send is not ordered with receiver")
	}
	if !d.Concurrent(pre1, before) {
		t.Error("pre-recv events are concurrent with sender")
	}
	if d.HappensBefore(recv, send) {
		t.Error("reverse edge must not exist")
	}
	if !d.Concurrent(after0, after1) {
		t.Error("post-sync independent events are concurrent")
	}
}

func TestBarrierOrdersBothDirections(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	var pre, post [3]trace.ID
	for r := int32(0); r < 3; r++ {
		pre[r] = b.Add(r, trace.Event{Kind: trace.KindStore, Addr: uint64(r), Size: 1})
	}
	b.Barrier()
	for r := int32(0); r < 3; r++ {
		post[r] = b.Add(r, trace.Event{Kind: trace.KindLoad, Addr: uint64(r), Size: 1})
	}
	d := buildDAG(t, b)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !d.HappensBefore(pre[i], post[j]) {
				t.Errorf("pre[%d] must hb post[%d]", i, j)
			}
			if i != j && !d.Concurrent(pre[i], pre[j]) {
				t.Errorf("pre[%d] and pre[%d] must be concurrent", i, j)
			}
		}
	}
}

func TestRootedCollectiveDirections(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	var bc [3]trace.ID
	for r := int32(0); r < 3; r++ {
		bc[r] = b.Add(r, trace.Event{Kind: trace.KindBcast, Comm: 0, Peer: 0})
	}
	d := buildDAG(t, b)
	if !d.HappensBefore(bc[0], bc[1]) || !d.HappensBefore(bc[0], bc[2]) {
		t.Error("bcast root must hb non-roots")
	}
	if !d.Concurrent(bc[1], bc[2]) {
		t.Error("bcast non-roots are not ordered with each other")
	}
	if d.HappensBefore(bc[1], bc[0]) {
		t.Error("bcast must not order non-root before root")
	}
}

func TestReduceToRoot(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	r0 := b.Add(0, trace.Event{Kind: trace.KindReduce, Comm: 0, Peer: 0})
	r1 := b.Add(1, trace.Event{Kind: trace.KindReduce, Comm: 0, Peer: 0})
	after := b.Add(0, trace.Event{Kind: trace.KindLoad, Addr: 0, Size: 1})
	d := buildDAG(t, b)
	if !d.HappensBefore(r1, r0) || !d.HappensBefore(r1, after) {
		t.Error("reduce contributors must hb root")
	}
	if d.HappensBefore(r0, r1) {
		t.Error("root must not hb contributors")
	}
}

func TestPSCWEdges(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	preStore := b.Add(0, trace.Event{Kind: trace.KindStore, Addr: 0x1000, Size: 4})
	post := b.Add(0, trace.Event{Kind: trace.KindWinPost, Win: 1, Def: &trace.Def{Members: []int32{1}}})
	wait := b.Add(0, trace.Event{Kind: trace.KindWinWait, Win: 1})
	postLoad := b.Add(0, trace.Event{Kind: trace.KindLoad, Addr: 0x1000, Size: 4})
	start := b.Add(1, trace.Event{Kind: trace.KindWinStart, Win: 1, Def: &trace.Def{Members: []int32{0}}})
	put := b.Add(1, trace.Event{Kind: trace.KindPut, Win: 1, Target: 0,
		OriginAddr: 0x500, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1})
	complete := b.Add(1, trace.Event{Kind: trace.KindWinComplete, Win: 1})
	d := buildDAG(t, b)

	if !d.HappensBefore(post, start) {
		t.Error("post must hb start")
	}
	if !d.HappensBefore(preStore, put) {
		t.Error("target store before post must hb origin ops in epoch")
	}
	if !d.HappensBefore(complete, wait) {
		t.Error("complete must hb wait")
	}
	if !d.HappensBefore(put, postLoad) {
		t.Error("epoch ops must hb target loads after wait")
	}
	if d.HappensBefore(postLoad, put) {
		t.Error("target load after wait must not hb epoch ops")
	}
}

func TestIsendWaitEdges(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	is := b.Add(0, trace.Event{Kind: trace.KindIsend, Comm: 0, Peer: 1, Tag: 0, Req: 1})
	b.Add(1, trace.Event{Kind: trace.KindIrecv, Comm: 0, Peer: 0, Tag: 0, Req: 4})
	wr := b.Add(1, trace.Event{Kind: trace.KindWaitReq, Comm: 0, Peer: 0, Tag: 0, Req: 4})
	afterWait := b.Add(1, trace.Event{Kind: trace.KindLoad, Addr: 0, Size: 1})
	d := buildDAG(t, b)
	if !d.HappensBefore(is, wr) || !d.HappensBefore(is, afterWait) {
		t.Error("isend must hb the completing wait")
	}
}

// TestFigure3Regions reproduces the structure of paper Figures 3 and 4:
// three processes, two concurrent regions split by a barrier. Operations in
// different regions are ordered; operations within one region but on
// different ranks are concurrent.
func TestFigure3Regions(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	// Region A: P0 puts to P1 (a); P1 stores locally (bStore); P2 puts to P1 (c).
	a := b.Add(0, trace.Event{Kind: trace.KindPut, Win: 1, Target: 1,
		OriginAddr: 0x500, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1})
	bStore := b.Add(1, trace.Event{Kind: trace.KindStore, Addr: 0x1000, Size: 4})
	c := b.Add(2, trace.Event{Kind: trace.KindPut, Win: 1, Target: 1,
		OriginAddr: 0x600, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1})
	b.Fence(1)
	b.Barrier()
	// Region B: P1 gets from P2 (dGet); P1 loads (eLoad).
	b.Fence(1)
	dGet := b.Add(1, trace.Event{Kind: trace.KindGet, Win: 1, Target: 2,
		OriginAddr: 0x700, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1})
	b.Fence(1)
	d := buildDAG(t, b)

	// Within region A: a, bStore, c mutually concurrent (different ranks).
	if !d.Concurrent(a, c) || !d.Concurrent(a, bStore) || !d.Concurrent(c, bStore) {
		t.Error("region A operations must be concurrent")
	}
	// Across the barrier: c happens before dGet (paper: "the barriers in
	// P0, P1, and P2 make c always happens before d").
	if !d.HappensBefore(c, dGet) || !d.HappensBefore(a, dGet) {
		t.Error("cross-region operations must be ordered")
	}

	// Regions: fences and the barrier are global sync points over 3 ranks.
	// WinCreate + 2 fences + barrier + 2 fences = 6 boundaries → 7 regions.
	regions := d.Regions()
	if len(regions) != 7 {
		t.Fatalf("regions = %d, want 7", len(regions))
	}
	// a and c must fall into the same region; dGet into a later one.
	findRegion := func(id trace.ID) int {
		for _, rg := range regions {
			if id.Seq >= rg.Start[id.Rank] && id.Seq < rg.End[id.Rank] {
				return rg.Index
			}
		}
		return -1
	}
	ra, rc, rd := findRegion(a), findRegion(c), findRegion(dGet)
	if ra != rc {
		t.Errorf("a in region %d but c in region %d", ra, rc)
	}
	if rd <= ra {
		t.Errorf("dGet region %d not after region %d", rd, ra)
	}
}

func TestSubCommBarrierNotGlobal(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.Add(0, trace.Event{Kind: trace.KindCommCreate, Comm: 7, Def: &trace.Def{Members: []int32{0, 1}}})
	b.Add(1, trace.Event{Kind: trace.KindCommCreate, Comm: 7, Def: &trace.Def{Members: []int32{0, 1}}})
	b.Add(0, trace.Event{Kind: trace.KindBarrier, Comm: 7})
	b.Add(1, trace.Event{Kind: trace.KindBarrier, Comm: 7})
	x := b.Add(2, trace.Event{Kind: trace.KindStore, Addr: 0, Size: 1})
	y := b.Add(0, trace.Event{Kind: trace.KindStore, Addr: 0, Size: 1})
	d := buildDAG(t, b)
	// Sub-communicator barrier orders ranks 0 and 1 but not rank 2.
	if !d.Concurrent(x, y) {
		t.Error("rank 2 must be unaffected by sub-comm barrier")
	}
	if len(d.Regions()) != 1 {
		t.Errorf("sub-comm sync must not split global regions; got %d", len(d.Regions()))
	}
}

func TestSegmentsGrowOnlyAtSync(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	for i := 0; i < 100; i++ {
		b.Add(0, trace.Event{Kind: trace.KindStore, Addr: uint64(i), Size: 1})
		b.Add(1, trace.Event{Kind: trace.KindStore, Addr: uint64(i), Size: 1})
	}
	b.Barrier()
	d := buildDAG(t, b)
	if d.Segments(0) != 2 {
		t.Errorf("segments = %d, want 2 (initial + post-barrier)", d.Segments(0))
	}
}

func TestClock(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	s := b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 0})
	r := b.Add(1, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: 0, Tag: 0})
	d := buildDAG(t, b)
	vc := d.ClockRef(r)
	if vc[0] != s.Seq {
		t.Errorf("recv clock[0] = %d, want %d", vc[0], s.Seq)
	}
	if d.ClockRef(s)[1] != -1 {
		t.Error("send must not know receiver")
	}
}
