package core

import (
	"fmt"
	"strconv"

	"repro/internal/dag"
	"repro/internal/obs/tracing"
	"repro/internal/trace"
)

// Violation provenance: the happens-before witness chain. Where the
// detectors report *that* two accesses conflict, the witness reconstructs
// *why* the happens-before path between them is open — the ordered
// synchronization and epoch events between the pair, in the spirit of the
// paper's causal-order reconstruction (§IV-C). The chain is what a user
// reads to decide which synchronization call to add (or move) to close
// the race, and what the Perfetto export lays out as per-rank tracks for
// the violating window.

// WitnessStep is one event on a violation's happens-before witness chain.
type WitnessStep struct {
	// Side attributes the step: 0 = shared synchronization context,
	// 1 = the first conflicting operand's side, 2 = the second's.
	Side byte
	// Role names the step's function on the chain, e.g. "epoch open",
	// "conflicting access (1)", "region close".
	Role string
	// Ev is a copy of the underlying trace event.
	Ev trace.Event
}

func (s WitnessStep) String() string { return string(s.appendText(nil)) }

// appendText appends the step's text rendering to b, the line
// Violation.String gives each step of its witness chain.
func (s *WitnessStep) appendText(b []byte) []byte {
	switch s.Side {
	case 1:
		b = append(b, " [1]  "...)
	case 2:
		b = append(b, " [2]  "...)
	default:
		b = append(b, "[sync]"...)
	}
	b = append(b, " rank "...)
	b = strconv.AppendInt(b, int64(s.Ev.Rank), 10)
	b = append(b, " seq "...)
	b = strconv.AppendInt(b, s.Ev.Seq, 10)
	b = appendCall(b, &s.Ev)
	b = append(b, " — "...)
	return append(b, s.Role...)
}

// addIntra records a within-epoch violation with its witness chain
// attached lazily (built only if the violation survives dedup).
func (a *Analyzer) addIntra(col *collector, e *Epoch, v *Violation) {
	v.witnessFn = a.witnessIntra(e, v)
	col.add(v)
}

// addCross records a cross-process violation with its witness chain
// attached lazily. aEpoch and bEpoch are the operands' epochs, either of
// which may be nil (local accesses belong to no epoch).
func (a *Analyzer) addCross(col *collector, rg dag.Region, aEpoch, bEpoch *Epoch, v *Violation) {
	v.witnessFn = a.witnessCross(rg, aEpoch, bEpoch, v)
	col.add(v)
}

// witnessIntra builds the chain for a within-epoch violation: the epoch's
// opening synchronization, the two conflicting operations in program
// order, and the closing synchronization that would have completed the
// pending operation — the pair is unordered precisely because both sit
// between open and close.
func (a *Analyzer) witnessIntra(e *Epoch, v *Violation) func() []WitnessStep {
	return func() []WitnessStep {
		t := a.m.Set.Traces[e.Rank]
		closed := e.End < int64(len(t.Events))
		n := 3
		if closed {
			n++
		}
		steps := make([]WitnessStep, 0, n)
		steps = append(steps,
			WitnessStep{Side: 0, Role: "epoch open (" + e.Kind.String() + ")", Ev: t.Events[e.Start]},
			WitnessStep{Side: 1, Role: "conflicting access (1), still pending", Ev: v.A},
			WitnessStep{Side: 2, Role: "conflicting access (2), before the close", Ev: v.B})
		if closed {
			steps = append(steps, WitnessStep{
				Side: 0, Role: "epoch close — first point ordering the pair", Ev: t.Events[e.End],
			})
		}
		return steps
	}
}

// AddWitnessTracks lays every reported violation's witness chain onto the
// timeline as its own track: one lane per rank, one unit-length span per
// chain step at the step's position, so the Perfetto view shows the
// causal order left open between the two sides rank by rank. No-op when
// either argument is nil.
func AddWitnessTracks(tr *tracing.Recorder, rep *Report) {
	if tr == nil || rep == nil {
		return
	}
	for i, v := range rep.Violations {
		if len(v.Witness) == 0 {
			continue
		}
		track := fmt.Sprintf("violation %d (%s)", i+1, v.Class)
		for j, st := range v.Witness {
			side := "sync"
			switch st.Side {
			case 1:
				side = "first"
			case 2:
				side = "second"
			}
			tr.AddSpanAt(track, fmt.Sprintf("rank %d", st.Ev.Rank),
				fmt.Sprintf("%s — %s", st.Ev.Kind, st.Role), int64(j), 1,
				"side", side,
				"seq", fmt.Sprintf("%d", st.Ev.Seq),
				"loc", st.Ev.Loc())
		}
	}
}

// witnessCross builds the chain for a cross-process violation: the global
// synchronization delimiting the concurrent region, each side's epoch
// opening (when the access belongs to an epoch), the two conflicting
// accesses, and the region-closing synchronization — everything between
// the delimiters is concurrent across ranks, which is exactly why the
// pair is unordered.
func (a *Analyzer) witnessCross(rg dag.Region, aEpoch, bEpoch *Epoch, v *Violation) func() []WitnessStep {
	return func() []WitnessStep {
		ta := a.m.Set.Traces[v.A.Rank]
		tb := a.m.Set.Traces[v.B.Rank]
		open := rg.Start[v.A.Rank] - 1
		end := int64(-1)
		if rg.Index < len(a.d.Regions())-1 {
			end = rg.End[v.B.Rank] - 1
		}
		closes := end >= 0 && end < int64(len(tb.Events))
		n := 2
		for _, ok := range [...]bool{open >= 0, aEpoch != nil, bEpoch != nil, closes} {
			if ok {
				n++
			}
		}
		region := strconv.Itoa(rg.Index)
		steps := make([]WitnessStep, 0, n)
		if open >= 0 {
			steps = append(steps, WitnessStep{
				Side: 0, Role: "region " + region + " opens — ranks unordered past here",
				Ev: ta.Events[open],
			})
		}
		if aEpoch != nil {
			steps = append(steps, WitnessStep{
				Side: 1, Role: epochOpenRole(aEpoch, v.A.Rank), Ev: ta.Events[aEpoch.Start],
			})
		}
		steps = append(steps, WitnessStep{Side: 1, Role: "conflicting access (1)", Ev: v.A})
		if bEpoch != nil {
			steps = append(steps, WitnessStep{
				Side: 2, Role: epochOpenRole(bEpoch, v.B.Rank), Ev: tb.Events[bEpoch.Start],
			})
		}
		steps = append(steps, WitnessStep{Side: 2, Role: "conflicting access (2)", Ev: v.B})
		if closes {
			steps = append(steps, WitnessStep{
				Side: 0, Role: "region " + region + " closes — first global order after the pair",
				Ev: tb.Events[end],
			})
		}
		return steps
	}
}

// epochOpenRole is the role of the step opening epoch e on rank.
func epochOpenRole(e *Epoch, rank int32) string {
	return "epoch open (" + e.Kind.String() + ") on rank " + strconv.Itoa(int(rank))
}
