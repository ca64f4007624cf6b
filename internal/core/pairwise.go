package core

import (
	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// PairwiseIntraEpoch is the within-epoch detector written out directly:
// every local access and every newly issued operation of an epoch is
// compared with every operation still pending in it, a Win_flush removes
// the completed operations from the pending list and a Win_flush_local
// marks their local buffers complete. Each pair is decided by the same
// rule bodies Analyzer's indexed detector runs (detect_intra.go). It
// finds the epoch's operations by ID rather than by walking Epoch.Ops in
// order, so it does not share the indexed detector's reliance on that
// order.
//
// It is a test reference, not a production path: Analyzer's reports of a
// within-epoch-only analysis — violations, dedup counts, representative
// instances and witnesses — must be byte-identical to this scan's. Epochs
// run serially.
func PairwiseIntraEpoch(m *model.Model) (*Report, error) {
	epochs, opEpoch, err := ExtractEpochs(m)
	if err != nil {
		return nil, err
	}
	a := NewAnalyzer(m, nil, epochs, opEpoch, Options{})
	a.report.EventsAnalyzed = m.Set.TotalEvents()
	a.report.EpochsChecked = len(epochs)
	col := &collector{report: a.report, vindex: a.vindex}
	for _, e := range epochs {
		if err := a.pairwiseEpoch(e, col); err != nil {
			return nil, err
		}
	}
	a.report.Sort()
	return a.report, nil
}

func (a *Analyzer) pairwiseEpoch(e *Epoch, col *collector) error {
	t := a.m.Set.Traces[e.Rank]
	var ops []pendingOp
	opSet := make(map[trace.ID]bool, len(e.Ops))
	for _, id := range e.Ops {
		opSet[id] = true
	}
	for seq := e.Start + 1; seq < e.End && seq < int64(len(t.Events)); seq++ {
		ev := &t.Events[seq]
		switch {
		case ev.Kind == trace.KindWinFlush && ev.Win == e.Win:
			tw, all, err := a.flushTarget(ev)
			if err != nil {
				return err
			}
			kept := ops[:0]
			for _, o := range ops {
				if !all && o.tw != tw {
					kept = append(kept, o)
				}
			}
			ops = kept
		case ev.Kind == trace.KindWinFlushLocal && ev.Win == e.Win:
			tw, all, err := a.flushTarget(ev)
			if err != nil {
				return err
			}
			for i := range ops {
				if all || ops[i].tw == tw {
					ops[i].localDone = true
				}
			}
		case ev.Kind.IsLocalAccess():
			acc := model.AccessFootprint(ev)
			for i := range ops {
				a.checkLocalVsPending(col, e, ev, acc, &ops[i])
			}
		case opSet[ev.ID()]:
			n, _, err := a.newPendingOp(ev, nil)
			if err != nil {
				return err
			}
			for i := range ops {
				a.checkOpVsPending(col, e, &n, &ops[i])
			}
			ops = append(ops, n)
		}
	}
	return nil
}

// PairwiseCrossProcess is the per-vector pairwise cross-process detector:
// the paper's two-step §IV-C-4 scan written out directly. For each
// concurrent region it records all one-sided operations per (window,
// target process) vector, checking each new operation against every
// stored one, then checks every local operation (loads, stores, RMA origin
// and result buffers, message buffers) of each target process against the
// stored remote operations.
//
// It is a test reference, not a production path: Analyzer runs the shadow
// engine (detect_shadow.go), whose reports — violations, dedup counts,
// representative instances and witnesses — must be byte-identical to this
// scan's. Regions run serially.
func PairwiseCrossProcess(m *model.Model, d *dag.DAG) (*Report, error) {
	return referenceScan(m, d, (*Analyzer).pairwiseRegion)
}

// referenceScan runs a reference cross-process detector serially over
// every concurrent region of a built pipeline, into one report with the
// statistics and order Analyzer.Run gives a cross-process-only analysis.
func referenceScan(m *model.Model, d *dag.DAG,
	check func(a *Analyzer, rg dag.Region, col *collector) error) (*Report, error) {
	epochs, opEpoch, err := ExtractEpochs(m)
	if err != nil {
		return nil, err
	}
	a := NewAnalyzer(m, d, epochs, opEpoch, Options{})
	a.report.EventsAnalyzed = m.Set.TotalEvents()
	regions := d.Regions()
	a.report.Regions = len(regions)
	col := &collector{report: a.report, vindex: a.vindex}
	for _, rg := range regions {
		if err := check(a, rg, col); err != nil {
			return nil, err
		}
	}
	a.report.Sort()
	return a.report, nil
}

type winTarget struct {
	win int32
	tw  int32
}

func (a *Analyzer) pairwiseRegion(rg dag.Region, col *collector) error {
	vectors := map[winTarget][]storedOp{}

	// Step 1: remote one-sided operations, checked pairwise per vector.
	for r := 0; r < a.m.Set.Ranks(); r++ {
		t := a.m.Set.Traces[r]
		lo, hi := rg.Span(int32(r))
		for seq := lo; seq < hi; seq++ {
			ev := &t.Events[seq]
			if !ev.Kind.IsRMAComm() {
				continue
			}
			target, err := a.m.TargetFootprint(ev)
			if err != nil {
				return err
			}
			key := winTarget{win: ev.Win, tw: target.Rank}
			cur := storedOp{ev: ev, target: target, epoch: a.opEpoch[ev.ID()]}
			for i := range vectors[key] {
				prev := &vectors[key][i]
				if prev.ev.Rank == ev.Rank {
					continue // same-process pairs are the intra-epoch detector's job
				}
				if !a.d.Concurrent(prev.ev.ID(), ev.ID()) {
					continue
				}
				iv, overlap := target.Overlaps(prev.target)
				if !overlap {
					continue
				}
				if EffectiveCompat(prev.ev, ev) == Both {
					continue
				}
				a.addCross(col, rg, prev.epoch, cur.epoch, &Violation{
					Severity: a.rmaPairSeverity(prev, &cur),
					Class:    AcrossProcesses,
					Rule:     rmaRuleText(prev.ev.Kind, ev.Kind),
					A:        *prev.ev, B: *ev, Win: ev.Win, Overlap: iv, Region: rg.Index,
				})
			}
			vectors[key] = append(vectors[key], cur)
		}
	}

	// Step 2: local operations at each process against the stored remote
	// operations on that process's window buffers.
	return a.forEachLocalAccess(rg, func(ev *trace.Event, cls Op, fp model.Footprint, storeRule bool) error {
		a.forEachWindow(fp, func(win int32) {
			a.checkLocalAgainstVector(rg, win, vectors[winTarget{win: win, tw: fp.Rank}],
				ev, cls, fp, storeRule, col)
		})
		return nil
	})
}

// checkLocalAgainstVector compares one local operation of process fp.Rank
// against the remote one-sided operations stored for window win at that
// process, deciding each pair with localMode.
func (a *Analyzer) checkLocalAgainstVector(rg dag.Region, win int32, vector []storedOp,
	ev *trace.Event, cls Op, fp model.Footprint, storeRule bool, col *collector) {
	for i := range vector {
		op := &vector[i]
		if op.ev.Rank == ev.Rank {
			continue
		}
		if !a.d.Concurrent(op.ev.ID(), ev.ID()) {
			continue
		}
		mode := localMode(op.ev.Kind, cls, storeRule)
		if mode == shadow.ModeSkip {
			continue
		}
		overlapIv, overlap := fp.Overlaps(op.target)
		if !overlap && mode != shadow.ModeAll {
			continue
		}
		a.addCross(col, rg, op.epoch, a.opEpoch[ev.ID()], &Violation{
			Severity: a.localPairSeverity(op),
			Class:    AcrossProcesses,
			Rule:     localRuleText(cls, op.ev.Kind, win, overlapIv.Empty()),
			A:        *op.ev, B: *ev, Win: win, Overlap: overlapIv, Region: rg.Index,
		})
	}
}
