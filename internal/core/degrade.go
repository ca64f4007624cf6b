package core

import (
	"fmt"

	"repro/internal/trace"
)

// Degraded analysis: produce the best possible report from a partial
// trace set (crashed ranks, truncated traces) instead of erroring. The
// strict pipeline rejects anything unmatched — an incomplete collective,
// a send whose receive was lost — so salvage works by cutting every rank
// back to a common global synchronization point: a prefix in which all
// structure is complete and the ordinary analyzers apply unchanged. The
// cut is retried at earlier synchronization points when point-to-point
// or request structure straddles the chosen boundary.

// maxSalvageRetries bounds how many successively earlier synchronization
// cuts AnalyzeDegraded tries before giving up with an empty prefix.
const maxSalvageRetries = 32

// AnalyzeDegraded analyzes a possibly partial trace set. It first tries
// the strict pipeline; on failure it salvages the longest analyzable
// prefix. The report's Degraded field carries the given upstream notes
// (crash and truncation diagnostics from the producer) plus a description
// of any prefix cut; it is empty exactly when the inputs were complete
// and analyzed in full with no notes.
func AnalyzeDegraded(set *trace.Set, opts Options, notes []string) (*Report, error) {
	rep, err := salvage(set, opts, notes)
	if err != nil {
		return nil, err
	}
	rep.RecordTotals(opts.Obs)
	return rep, nil
}

// salvage is AnalyzeDegraded without recording the report's totals.
func salvage(set *trace.Set, opts Options, notes []string) (*Report, error) {
	mDegraded := opts.Obs.Counter("mcchecker_analysis_degraded_total")
	mRetries := opts.Obs.Counter("mcchecker_analysis_salvage_retries_total")
	tr := opts.Trace

	sp := tr.Start("pipeline", "main", "strict attempt")
	rep, err := runPipeline(set, opts)
	sp.End()
	if err == nil {
		rep.Degraded = append(rep.Degraded, notes...)
		if len(rep.Degraded) > 0 {
			mDegraded.Inc()
		}
		return rep, nil
	}
	mDegraded.Inc()
	// A canceled analysis must not be "salvaged": the watchdog asked for
	// the worker back, and each salvage retry would just re-hit the dead
	// context. Surface the cancellation instead.
	if cerr := opts.ctxErr(); cerr != nil {
		return nil, cerr
	}
	tr.Instant("pipeline", "main", "strict analysis failed; salvaging", "error", err.Error())
	notes = append(notes[:len(notes):len(notes)],
		fmt.Sprintf("full analysis failed (%v); salvaging a clean prefix", err))

	// Cut every rank at its k-th global synchronization event, for the
	// largest k all ranks share, retrying earlier boundaries until the
	// prefix analyzes. A boundary can fail when point-to-point structure
	// straddles it (send before, receive after); the straddling pair is
	// wholly behind some earlier boundary, so decrementing k converges.
	syncs := globalSyncPositions(set)
	k := -1
	for _, pos := range syncs {
		if k < 0 || len(pos) < k {
			k = len(pos)
		}
	}
	for try := 0; k >= 0 && try < maxSalvageRetries; k, try = k-1, try+1 {
		if cerr := opts.ctxErr(); cerr != nil {
			return nil, cerr
		}
		cut := cutAt(set, syncs, k)
		sp := tr.Start("pipeline", "main", fmt.Sprintf("salvage attempt (cut at sync %d)", k))
		rep, err := runPipeline(cut, opts)
		sp.End()
		if err != nil {
			mRetries.Inc()
			continue
		}
		rep.Degraded = append(notes, fmt.Sprintf(
			"salvage: analyzed prefix up to global synchronization %d (%d of %d events)",
			k, cut.TotalEvents(), set.TotalEvents()))
		return rep, nil
	}

	// Nothing analyzable: report emptiness rather than failing, so the
	// caller still sees the diagnostics.
	rep = &Report{}
	rep.Degraded = append(notes, "salvage: no analyzable prefix found; report is empty")
	return rep, nil
}

// GlobalSyncs classifies global synchronizations, the events at which a
// salvage cut and a streaming slab may end: a barrier-like collective
// over a communicator of all ranks, or a fence, create or free on a
// window of such a communicator. It learns communicator sizes and window
// communicators from the definition events it is shown (Define).
type GlobalSyncs struct {
	ranks    int
	commSize map[int32]int   // comm id → member count
	winComm  map[int32]int32 // window id → comm id
}

// NewGlobalSyncs returns a classifier for a world of the given size that
// knows only the world communicator.
func NewGlobalSyncs(ranks int) *GlobalSyncs {
	return &GlobalSyncs{ranks: ranks, commSize: map[int32]int{0: ranks}, winComm: map[int32]int32{}}
}

// Define records what ev defines, if anything: a communicator's size or a
// window's communicator.
func (g *GlobalSyncs) Define(ev *trace.Event) {
	switch ev.Kind {
	case trace.KindCommCreate:
		g.commSize[ev.Comm] = len(ev.Members())
	case trace.KindWinCreate:
		g.winComm[ev.Win] = ev.Comm
	}
}

// Global reports whether ev is a global synchronization, by the
// definitions recorded so far.
func (g *GlobalSyncs) Global(ev *trace.Event) bool {
	switch ev.Kind {
	case trace.KindBarrier, trace.KindAllreduce, trace.KindAllgather, trace.KindAlltoall:
		return g.commSize[ev.Comm] == g.ranks
	case trace.KindWinFence, trace.KindWinCreate, trace.KindWinFree:
		comm, ok := g.winComm[ev.Win]
		return ok && g.commSize[comm] == g.ranks
	}
	return false
}

// globalSyncPositions returns, per rank, the event indexes of the global
// synchronizations, by the definitions of the whole set.
func globalSyncPositions(set *trace.Set) [][]int {
	g := NewGlobalSyncs(set.Ranks())
	for _, t := range set.Traces {
		for i := range t.Events {
			g.Define(&t.Events[i])
		}
	}
	pos := make([][]int, set.Ranks())
	for r, t := range set.Traces {
		for i := range t.Events {
			if g.Global(&t.Events[i]) {
				pos[r] = append(pos[r], i)
			}
		}
	}
	return pos
}

// cutAt truncates every rank's trace just after its k-th global sync
// (1-based, clamped to the syncs the rank has); k = 0 yields empty
// traces. Tails beyond the last common boundary are dropped — they are
// exactly where the structure is incomplete.
func cutAt(set *trace.Set, syncs [][]int, k int) *trace.Set {
	out := trace.NewSet(set.Ranks())
	for r, t := range set.Traces {
		kk := k
		if kk > len(syncs[r]) {
			kk = len(syncs[r])
		}
		end := 0
		if kk > 0 {
			end = syncs[r][kk-1] + 1
		}
		out.Traces[r].Events = append([]trace.Event(nil), t.Events[:end]...)
	}
	return out
}
