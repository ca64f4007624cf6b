// Package testutil provides helpers for building synthetic traces in
// analyzer tests, mirroring the hand-drawn execution timelines of the paper
// (e.g. Figure 3).
package testutil

import (
	"repro/internal/trace"
)

// TraceBuilder assembles a trace.Set event by event, stamping ranks and
// dense per-rank sequence numbers.
type TraceBuilder struct {
	set *trace.Set
}

// NewTraceBuilder returns a builder for n ranks.
func NewTraceBuilder(n int) *TraceBuilder {
	return &TraceBuilder{set: trace.NewSet(n)}
}

// Add appends ev to rank's trace, stamping Rank and Seq, and returns the
// event id.
func (b *TraceBuilder) Add(rank int32, ev trace.Event) trace.ID {
	t := b.set.Traces[rank]
	ev.Rank = rank
	ev.Seq = int64(len(t.Events))
	t.Events = append(t.Events, ev)
	return ev.ID()
}

// Barrier appends a world barrier event to every rank and returns the ids.
func (b *TraceBuilder) Barrier() []trace.ID {
	ids := make([]trace.ID, b.set.Ranks())
	for r := 0; r < b.set.Ranks(); r++ {
		ids[r] = b.Add(int32(r), trace.Event{Kind: trace.KindBarrier, Comm: 0})
	}
	return ids
}

// WinCreate appends a window-creation event to every rank for a window of
// size bytes at base (same base in every rank's address space, which is
// fine for tests) with displacement unit 1.
func (b *TraceBuilder) WinCreate(win int32, base, size uint64) {
	for r := 0; r < b.set.Ranks(); r++ {
		b.Add(int32(r), trace.Event{
			Kind: trace.KindWinCreate, Win: win, Comm: 0,
			Def: &trace.Def{WinBase: base, WinSize: size, DispUnit: 1},
		})
	}
}

// Fence appends a fence on win to every rank.
func (b *TraceBuilder) Fence(win int32) {
	for r := 0; r < b.set.Ranks(); r++ {
		b.Add(int32(r), trace.Event{Kind: trace.KindWinFence, Win: win, Comm: 0})
	}
}

// Set finalizes and returns the trace set.
func (b *TraceBuilder) Set() *trace.Set {
	if err := b.set.Validate(); err != nil {
		panic("testutil: invalid built trace: " + err.Error())
	}
	return b.set
}
