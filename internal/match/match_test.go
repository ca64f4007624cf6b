package match

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func build(t *testing.T, b *testutil.TraceBuilder) *model.Model {
	t.Helper()
	m, err := model.Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMatchBarriers(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.Barrier()
	b.Barrier()
	ms, err := Run(build(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Groups) != 2 {
		t.Fatalf("groups = %d", len(ms.Groups))
	}
	for _, g := range ms.Groups {
		if g.Kind != trace.KindBarrier || g.Direction != DirAll || len(g.Events) != 3 {
			t.Errorf("group = %+v", g)
		}
	}
	// The k-th barrier at each rank must be in the same group.
	seqs := map[int64]bool{}
	for _, id := range ms.Groups[0].Events {
		seqs[id.Seq] = true
	}
	if len(seqs) != 1 {
		t.Errorf("first group mixes instances: %v", ms.Groups[0].Events)
	}
}

func TestMatchSendRecvFIFO(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	s1 := b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 9})
	s2 := b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 9})
	r1 := b.Add(1, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: 0, Tag: 9})
	r2 := b.Add(1, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: 0, Tag: 9})
	ms, err := Run(build(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.P2P) != 2 {
		t.Fatalf("p2p = %v", ms.P2P)
	}
	got := map[trace.ID]trace.ID{}
	for _, p := range ms.P2P {
		got[p.From] = p.To
	}
	if got[s1] != r1 || got[s2] != r2 {
		t.Errorf("FIFO violated: %v", got)
	}
}

func TestMatchTagsSeparateChannels(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	sA := b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 1})
	sB := b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 2})
	// Receiver consumes tag 2 first.
	rB := b.Add(1, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: 0, Tag: 2})
	rA := b.Add(1, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: 0, Tag: 1})
	ms, err := Run(build(t, b))
	if err != nil {
		t.Fatal(err)
	}
	got := map[trace.ID]trace.ID{}
	for _, p := range ms.P2P {
		got[p.From] = p.To
	}
	if got[sA] != rA || got[sB] != rB {
		t.Errorf("tag channels mixed: %v", got)
	}
}

func TestMatchIsendIrecvViaWait(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	is := b.Add(0, trace.Event{Kind: trace.KindIsend, Comm: 0, Peer: 1, Tag: 5, Req: 1})
	b.Add(0, trace.Event{Kind: trace.KindWaitReq, Req: 1})
	b.Add(1, trace.Event{Kind: trace.KindIrecv, Comm: 0, Peer: 0, Tag: 5, Req: 1})
	wr := b.Add(1, trace.Event{Kind: trace.KindWaitReq, Comm: 0, Peer: 0, Tag: 5, Req: 1})
	ms, err := Run(build(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.P2P) != 1 || ms.P2P[0].From != is || ms.P2P[0].To != wr {
		t.Errorf("isend/irecv match = %v", ms.P2P)
	}
}

func TestMatchRootedCollectives(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	for r := int32(0); r < 3; r++ {
		b.Add(r, trace.Event{Kind: trace.KindBcast, Comm: 0, Peer: 1})
	}
	for r := int32(0); r < 3; r++ {
		b.Add(r, trace.Event{Kind: trace.KindReduce, Comm: 0, Peer: 2})
	}
	ms, err := Run(build(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Groups) != 2 {
		t.Fatalf("groups = %d", len(ms.Groups))
	}
	var bcast, reduce *Group
	for i := range ms.Groups {
		switch ms.Groups[i].Kind {
		case trace.KindBcast:
			bcast = &ms.Groups[i]
		case trace.KindReduce:
			reduce = &ms.Groups[i]
		}
	}
	if bcast == nil || bcast.Direction != DirFromRoot || bcast.Root.Rank != 1 {
		t.Errorf("bcast group = %+v", bcast)
	}
	if reduce == nil || reduce.Direction != DirToRoot || reduce.Root.Rank != 2 {
		t.Errorf("reduce group = %+v", reduce)
	}
}

func TestMatchSubCommCollective(t *testing.T) {
	b := testutil.NewTraceBuilder(4)
	// Ranks 1 and 3 create comm 9 and barrier on it; 0 and 2 do nothing.
	b.Add(1, trace.Event{Kind: trace.KindCommCreate, Comm: 9, Def: &trace.Def{Members: []int32{1, 3}}})
	b.Add(3, trace.Event{Kind: trace.KindCommCreate, Comm: 9, Def: &trace.Def{Members: []int32{1, 3}}})
	b.Add(1, trace.Event{Kind: trace.KindBarrier, Comm: 9})
	b.Add(3, trace.Event{Kind: trace.KindBarrier, Comm: 9})
	ms, err := Run(build(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Groups) != 2 { // comm create + barrier
		t.Fatalf("groups = %+v", ms.Groups)
	}
	for _, g := range ms.Groups {
		if len(g.Events) != 2 {
			t.Errorf("group %v has %d events", g.Kind, len(g.Events))
		}
	}
}

func TestMatchFencesPerWindow(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.WinCreate(2, 0x2000, 64)
	b.Fence(1)
	b.Fence(2)
	b.Fence(1)
	ms, err := Run(build(t, b))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[trace.Kind]int{}
	for _, g := range ms.Groups {
		counts[g.Kind]++
	}
	if counts[trace.KindWinCreate] != 2 || counts[trace.KindWinFence] != 3 {
		t.Errorf("counts = %v", counts)
	}
}

func TestMatchPSCW(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.WinCreate(1, 0x1000, 64)
	post := b.Add(0, trace.Event{Kind: trace.KindWinPost, Win: 1, Def: &trace.Def{Members: []int32{1, 2}}})
	wait := b.Add(0, trace.Event{Kind: trace.KindWinWait, Win: 1})
	st1 := b.Add(1, trace.Event{Kind: trace.KindWinStart, Win: 1, Def: &trace.Def{Members: []int32{0}}})
	c1 := b.Add(1, trace.Event{Kind: trace.KindWinComplete, Win: 1})
	st2 := b.Add(2, trace.Event{Kind: trace.KindWinStart, Win: 1, Def: &trace.Def{Members: []int32{0}}})
	c2 := b.Add(2, trace.Event{Kind: trace.KindWinComplete, Win: 1})
	ms, err := Run(build(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.PostStart) != 2 || len(ms.CompleteWait) != 2 {
		t.Fatalf("pscw: %v / %v", ms.PostStart, ms.CompleteWait)
	}
	gotPS := map[trace.ID]trace.ID{}
	for _, p := range ms.PostStart {
		gotPS[p.To] = p.From
	}
	if gotPS[st1] != post || gotPS[st2] != post {
		t.Errorf("post/start = %v", gotPS)
	}
	gotCW := map[trace.ID]trace.ID{}
	for _, p := range ms.CompleteWait {
		gotCW[p.From] = p.To
	}
	if gotCW[c1] != wait || gotCW[c2] != wait {
		t.Errorf("complete/wait = %v", gotCW)
	}
}

func TestMatchDetectsCollectiveMismatch(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.Add(0, trace.Event{Kind: trace.KindBarrier, Comm: 0})
	b.Add(1, trace.Event{Kind: trace.KindAllreduce, Comm: 0})
	_, err := Run(build(t, b))
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("err = %v", err)
	}
}

func TestMatchDetectsUnmatchedSend(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 0})
	_, err := Run(build(t, b))
	if err == nil || !strings.Contains(err.Error(), "unreceived") {
		t.Errorf("err = %v", err)
	}
}

// With several channels left unmatched, the error names the one whose
// first event has the smallest (rank, seq), however the matcher's maps
// iterate.
func TestMatchUnmatchedReportIsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		kind trace.Kind
		want string
	}{
		{trace.KindSend, "from rank 0 to rank 1"},
		{trace.KindRecv, "at rank 0 from rank 1"},
	} {
		b := testutil.NewTraceBuilder(3)
		b.Add(0, trace.Event{Kind: tc.kind, Comm: 0, Peer: 1, Tag: 0})
		b.Add(0, trace.Event{Kind: tc.kind, Comm: 0, Peer: 2, Tag: 0})
		m := build(t, b)
		for i := 0; i < 200; i++ {
			_, err := Run(m)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, run %d: err = %v, want it to name %q", tc.kind, i, err, tc.want)
			}
		}
	}
}

func TestMatchDetectsIncompleteBarrier(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.Add(0, trace.Event{Kind: trace.KindBarrier, Comm: 0})
	_, err := Run(build(t, b))
	if err == nil || !strings.Contains(err.Error(), "matched only") {
		t.Errorf("err = %v", err)
	}
}

// TestMatchStrayCollectiveReopensInstance pins the matcher on a rank
// outside a communicator that logs a collective on it after the members
// completed their first two instances: the stray event re-opens instance
// 0, its own first, which then never completes.
func TestMatchStrayCollectiveReopensInstance(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	for r := int32(0); r < 2; r++ {
		b.Add(r, trace.Event{Kind: trace.KindCommCreate, Comm: 1, Def: &trace.Def{Members: []int32{0, 1}}})
		b.Add(r, trace.Event{Kind: trace.KindBarrier, Comm: 1})
		b.Add(r, trace.Event{Kind: trace.KindBarrier, Comm: 1})
	}
	// Rank 2's stores put its barrier last in the scan.
	for k := 0; k < 10; k++ {
		b.Add(2, trace.Event{Kind: trace.KindStore, Addr: 1, Size: 1})
	}
	b.Add(2, trace.Event{Kind: trace.KindBarrier, Comm: 1})
	_, err := Run(build(t, b))
	const want = "match: collective Barrier on scope c1 instance 0 matched only 1 of 2 ranks"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

func TestMatchLocksDoNotSynchronize(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared})
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1})
	ms, err := Run(build(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.P2P)+len(ms.PostStart)+len(ms.CompleteWait) != 0 {
		t.Error("locks must not create cross-process pairs")
	}
	if len(ms.Groups) != 1 { // only the WinCreate
		t.Errorf("groups = %v", ms.Groups)
	}
}

func TestMatchRootMismatch(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.Add(0, trace.Event{Kind: trace.KindBcast, Comm: 0, Peer: 0})
	b.Add(1, trace.Event{Kind: trace.KindBcast, Comm: 0, Peer: 1})
	_, err := Run(build(t, b))
	if err == nil || !strings.Contains(err.Error(), "root mismatch") {
		t.Errorf("err = %v", err)
	}
}
