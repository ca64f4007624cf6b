package dag

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// randomSyncTrace builds a trace mixing barriers, rooted collectives,
// p2p chains, and local accesses.
func randomSyncTrace(seed int64, ranks, rounds int) *testutil.TraceBuilder {
	rng := rand.New(rand.NewSource(seed))
	b := testutil.NewTraceBuilder(ranks)
	for round := 0; round < rounds; round++ {
		switch rng.Intn(5) {
		case 0:
			b.Barrier()
		case 1:
			root := int32(rng.Intn(ranks))
			for r := int32(0); r < int32(ranks); r++ {
				b.Add(r, trace.Event{Kind: trace.KindBcast, Comm: 0, Peer: root})
			}
		case 2:
			root := int32(rng.Intn(ranks))
			for r := int32(0); r < int32(ranks); r++ {
				b.Add(r, trace.Event{Kind: trace.KindReduce, Comm: 0, Peer: root})
			}
		case 3:
			src := int32(rng.Intn(ranks))
			dst := (src + 1 + int32(rng.Intn(ranks-1))) % int32(ranks)
			b.Add(src, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: dst, Tag: int32(rng.Intn(2))})
			b.Add(dst, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: src, Tag: 0}) // may mismatch tag
		case 4:
			r := int32(rng.Intn(ranks))
			b.Add(r, trace.Event{Kind: trace.KindStore, Addr: uint64(rng.Intn(64)), Size: 1})
		}
	}
	return b
}

// fixTags repairs the p2p tags so that every send matches a receive (the
// generator may emit mismatched tags; rewrite all tags to 0).
func fixTags(set *trace.Set) {
	for _, t := range set.Traces {
		for i := range t.Events {
			if t.Events[i].Kind.IsP2P() {
				t.Events[i].Tag = 0
			}
		}
	}
}

// TestNaiveAgreesWithVectorClocks compares the vector clocks with the
// graph walk on random traces, on every pair of events across ranks and
// a sample of same-rank pairs, and on the trace of every bundled bug case,
// buggy and fixed, on a seeded sample of pairs across ranks: those traces
// hold fences, PSCW, Isend/Irecv with Wait and sub-communicators, and
// each naive query walks the graph.
func TestNaiveAgreesWithVectorClocks(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		set := randomSyncTrace(seed, 4, 20).Set()
		fixTags(set)
		rng := rand.New(rand.NewSource(seed + 1000))
		var pairs [][2]trace.ID
		ids := allIDs(set)
		for _, a := range ids {
			for _, b := range ids {
				if a != b && (a.Rank != b.Rank || rng.Intn(4) == 0) {
					pairs = append(pairs, [2]trace.ID{a, b})
				}
			}
		}
		agree(t, fmt.Sprintf("seed %d", seed), set, pairs)
	}
	cases, err := testutil.CaseTraces(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	const sample = 2000
	for i, c := range cases {
		if c.Set.Ranks() < 2 {
			continue // no pairs across ranks
		}
		rng := rand.New(rand.NewSource(int64(i)))
		ids := allIDs(c.Set)
		var pairs [][2]trace.ID
		for len(pairs) < sample {
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if a.Rank != b.Rank {
				pairs = append(pairs, [2]trace.ID{a, b})
			}
		}
		agree(t, c.Name, c.Set, pairs)
	}
}

func allIDs(set *trace.Set) []trace.ID {
	var ids []trace.ID
	for _, tr := range set.Traces {
		for i := range tr.Events {
			ids = append(ids, tr.Events[i].ID())
		}
	}
	return ids
}

// agree fails the test where the vector clocks and the graph walk answer
// HappensBefore differently on a pair.
func agree(t *testing.T, name string, set *trace.Set, pairs [][2]trace.ID) {
	t.Helper()
	m, err := model.Build(set)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := match.Run(m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d, err := Build(m, ms)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := BuildNaive(m, ms)
	if len(pairs) == 0 {
		t.Fatalf("%s: no pairs checked", name)
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if d.HappensBefore(a, b) != n.HappensBefore(a, b) {
			t.Fatalf("%s: hb(%v,%v): clocks=%v naive=%v",
				name, a, b, d.HappensBefore(a, b), n.HappensBefore(a, b))
		}
	}
}

func TestNaiveBasics(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	s := b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 0})
	r := b.Add(1, trace.Event{Kind: trace.KindRecv, Comm: 0, Peer: 0, Tag: 0})
	after := b.Add(1, trace.Event{Kind: trace.KindStore, Addr: 0, Size: 1})
	m, _ := model.Build(b.Set())
	ms, _ := match.Run(m)
	n := BuildNaive(m, ms)
	if !n.HappensBefore(s, r) || !n.HappensBefore(s, after) {
		t.Error("naive missed send→recv ordering")
	}
	if n.HappensBefore(r, s) || n.Concurrent(s, s) {
		t.Error("naive reversed ordering")
	}
}
