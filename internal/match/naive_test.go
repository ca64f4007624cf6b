package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// canonical renders matches order-independently for comparison: the
// groups as strings, then the P2P, PostStart and CompleteWait pairs.
func canonical(ms *Matches) ([]string, [3][]Pair) {
	var groups []string
	for _, g := range ms.Groups {
		evs := append([]trace.ID(nil), g.Events...)
		sort.Slice(evs, func(i, j int) bool { return evs[i].Rank < evs[j].Rank })
		s := g.Kind.String() + "/" + g.Direction.String()
		for _, id := range evs {
			s += "|" + itoa(id)
		}
		groups = append(groups, s)
	}
	sort.Strings(groups)
	var pairs [3][]Pair
	for i, list := range [3][]Pair{ms.P2P, ms.PostStart, ms.CompleteWait} {
		ps := append([]Pair(nil), list...)
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].From != ps[j].From {
				return less(ps[i].From, ps[j].From)
			}
			return less(ps[i].To, ps[j].To)
		})
		pairs[i] = ps
	}
	return groups, pairs
}

func itoa(id trace.ID) string {
	return string(rune('0'+id.Rank)) + ":" + string(rune('0'+id.Seq%10)) + string(rune('a'+id.Seq/10))
}

func less(a, b trace.ID) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Seq < b.Seq
}

// randomTrace builds a well-formed trace with collectives, fences, and
// FIFO p2p traffic.
func randomTrace(seed int64, ranks int) *testutil.TraceBuilder {
	rng := rand.New(rand.NewSource(seed))
	b := testutil.NewTraceBuilder(ranks)
	b.WinCreate(1, 0x1000, 256)
	rounds := 10 + rng.Intn(10)
	for round := 0; round < rounds; round++ {
		switch rng.Intn(4) {
		case 0:
			b.Barrier()
		case 1:
			b.Fence(1)
		case 2:
			root := int32(rng.Intn(ranks))
			for r := int32(0); r < int32(ranks); r++ {
				b.Add(r, trace.Event{Kind: trace.KindBcast, Comm: 0, Peer: root})
			}
		case 3:
			src := int32(rng.Intn(ranks))
			dst := int32(rng.Intn(ranks))
			if dst == src {
				dst = (src + 1) % int32(ranks)
			}
			tag := int32(rng.Intn(3))
			n := 1 + rng.Intn(3)
			for k := 0; k < n; k++ {
				b.Add(src, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: dst, Tag: tag})
			}
			for k := 0; k < n; k++ {
				b.Add(dst, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: src, Tag: tag})
			}
		}
	}
	return b
}

// TestNaiveMatchesEfficient checks that the naive matcher and Algorithm
// 1's agree on every random trace and on the trace of every bundled bug
// case, buggy and fixed.
func TestNaiveMatchesEfficient(t *testing.T) {
	type input struct {
		name string
		set  *trace.Set
	}
	var inputs []input
	for seed := int64(0); seed < 10; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("seed %d", seed), randomTrace(seed, 4).Set()})
	}
	cases, err := testutil.CaseTraces(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		inputs = append(inputs, input{c.Name, c.Set})
	}
	pscw := 0
	for _, in := range inputs {
		m, err := model.Build(in.set)
		if err != nil {
			t.Fatal(err)
		}
		eff, err := Run(m)
		if err != nil {
			t.Fatalf("%s: efficient: %v", in.name, err)
		}
		naive, err := RunNaive(m)
		if err != nil {
			t.Fatalf("%s: naive: %v", in.name, err)
		}
		eg, ep := canonical(eff)
		ng, np := canonical(naive)
		if !reflect.DeepEqual(eg, ng) {
			t.Errorf("%s: groups differ\neff:   %v\nnaive: %v", in.name, eg, ng)
		}
		for i, list := range []string{"p2p", "post-start", "complete-wait"} {
			if !reflect.DeepEqual(ep[i], np[i]) {
				t.Errorf("%s: %s pairs differ\neff:   %v\nnaive: %v", in.name, list, ep[i], np[i])
			}
		}
		pscw += len(eff.PostStart) + len(eff.CompleteWait)
	}
	if pscw == 0 {
		t.Error("no input has PSCW pairs")
	}
}

func TestNaiveDetectsUnmatched(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 0})
	m, err := model.Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunNaive(m); err == nil {
		t.Error("naive matcher must reject unreceived sends")
	}
}
