package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/trace"
)

// QuadraticCrossProcess is the straightforward cross-process detector the
// paper describes and rejects in §IV-C-4: "DN-Analyzer examining each pair
// of operations in a concurrent region against the compatibility table.
// Unfortunately, the time complexity is combinatorial with respect to the
// total number of operations within one concurrent region."
//
// It reports the same conflicts as Analyzer's linear detector (same rules,
// same deduplication) and exists as the ablation baseline for the
// linear-vs-quadratic benchmark.
func QuadraticCrossProcess(m *model.Model, d *dag.DAG) (*Report, error) {
	epochs, opEpoch, err := ExtractEpochs(m)
	if err != nil {
		return nil, err
	}
	a := NewAnalyzer(m, d, epochs, opEpoch, Options{})
	a.report.EventsAnalyzed = m.Set.TotalEvents()
	regions := d.Regions()
	a.report.Regions = len(regions)
	for _, rg := range regions {
		if err := a.quadraticRegion(rg); err != nil {
			return nil, err
		}
	}
	a.report.Sort()
	return a.report, nil
}

// site is one memory operation occurrence considered by the all-pairs scan.
type site struct {
	ev       *trace.Event
	isTarget bool // true: RMA target-window side; false: local access or RMA origin side
	cls      Op   // access class of this side
	fp       model.Footprint
	epoch    *Epoch
	// storeRule is true for genuine local stores (the no-overlap rule
	// applies), not for Get origin-buffer writes (paper §IV-C-4).
	storeRule bool
}

func (a *Analyzer) quadraticRegion(rg dag.Region) error {
	var sites []site
	for r := 0; r < a.m.Set.Ranks(); r++ {
		t := a.m.Set.Traces[r]
		lo, hi := rg.Span(int32(r))
		for seq := lo; seq < hi; seq++ {
			ev := &t.Events[seq]
			switch {
			case ev.Kind.IsRMAComm():
				target, err := a.m.TargetFootprint(ev)
				if err != nil {
					return err
				}
				cls, _ := OpOf(ev.Kind)
				sites = append(sites, site{ev: ev, isTarget: true, cls: cls, fp: target, epoch: a.opEpoch[ev.ID()]})
				origin, err := a.m.OriginFootprint(ev)
				if err != nil {
					return err
				}
				sites = append(sites, site{ev: ev, cls: originClass(ev.Kind), fp: origin, epoch: a.opEpoch[ev.ID()]})
				if ev.ResultCount > 0 {
					result, err := a.m.ResultFootprint(ev)
					if err != nil {
						return err
					}
					sites = append(sites, site{ev: ev, cls: OpStore, fp: result, epoch: a.opEpoch[ev.ID()]})
				}
			case ev.Kind.IsLocalAccess():
				cls := OpLoad
				if ev.Kind == trace.KindStore {
					cls = OpStore
				}
				sites = append(sites, site{ev: ev, cls: cls, fp: model.AccessFootprint(ev), storeRule: cls == OpStore})
			default:
				if cls, ok := a.messageBufferClass(ev); ok {
					fp, err := a.m.OriginFootprint(ev)
					if err != nil {
						return err
					}
					sites = append(sites, site{ev: ev, cls: cls, fp: fp})
				}
			}
		}
	}

	// All pairs — the combinatorial scan.
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			a.checkSitePair(rg, &sites[i], &sites[j])
		}
	}
	return nil
}

func (a *Analyzer) checkSitePair(rg dag.Region, x, y *site) {
	if x.ev.Rank == y.ev.Rank {
		return // same-process pairs belong to the intra-epoch detector
	}
	// Order so that target sites come first for uniform handling.
	if !x.isTarget && y.isTarget {
		x, y = y, x
	}
	if !x.isTarget {
		return // local×local never conflicts across processes (only window buffers at targets can race)
	}
	if !a.d.Concurrent(x.ev.ID(), y.ev.ID()) {
		return
	}

	if y.isTarget {
		// RMA target × RMA target: same window, same target process.
		if x.ev.Win != y.ev.Win || x.fp.Rank != y.fp.Rank {
			return
		}
		iv, overlap := x.fp.Overlaps(y.fp)
		if !overlap {
			return
		}
		if EffectiveCompat(x.ev, y.ev) == Both {
			return
		}
		sx := storedOp{ev: x.ev, target: x.fp, epoch: x.epoch}
		sy := storedOp{ev: y.ev, target: y.fp, epoch: y.epoch}
		a.addCross(&collector{report: a.report, vindex: a.vindex}, rg, x.epoch, y.epoch, &Violation{
			Severity: a.rmaPairSeverity(&sx, &sy),
			Class:    AcrossProcesses,
			Rule: fmt.Sprintf("concurrent %s and %s from different processes overlap in the target window",
				x.ev.Kind, y.ev.Kind),
			A: *x.ev, B: *y.ev, Win: x.ev.Win, Overlap: iv, Region: rg.Index,
		})
		return
	}

	// RMA target × local side: the local side must be at the target
	// process and inside the same window.
	if y.fp.Rank != x.fp.Rank {
		return
	}
	if !a.inWindow(y.fp, x.ev.Win) {
		return
	}
	opCls, _ := OpOf(x.ev.Kind)
	cell := Table(opCls, y.cls)
	var overlapIv memory.Interval
	conflict := false
	switch cell {
	case Both:
		return
	case NonOverlap:
		overlapIv, conflict = y.fp.Overlaps(x.fp)
	case Error:
		if y.storeRule {
			conflict = true
			overlapIv, _ = y.fp.Overlaps(x.fp)
		} else {
			overlapIv, conflict = y.fp.Overlaps(x.fp)
		}
	}
	if !conflict {
		return
	}
	rule := fmt.Sprintf("local %s at the target process conflicts with a concurrent remote %s",
		y.cls, x.ev.Kind)
	if cell == Error && overlapIv.Empty() {
		rule = fmt.Sprintf("local %s to window %d while a concurrent remote %s updates the window (erroneous even without overlap)",
			y.cls, x.ev.Win, x.ev.Kind)
	}
	sx := storedOp{ev: x.ev, target: x.fp, epoch: x.epoch}
	a.addCross(&collector{report: a.report, vindex: a.vindex}, rg, x.epoch, y.epoch, &Violation{
		Severity: a.localPairSeverity(&sx),
		Class:    AcrossProcesses,
		Rule:     rule,
		A:        *x.ev, B: *y.ev, Win: x.ev.Win, Overlap: overlapIv, Region: rg.Index,
	})
}

// inWindow reports whether any interval of fp lies in window win's local
// buffer at fp.Rank.
func (a *Analyzer) inWindow(fp model.Footprint, win int32) bool {
	for _, iv := range fp.Intervals {
		for _, wi := range a.m.WindowsAt(fp.Rank, iv) {
			if wi.ID == win {
				return true
			}
		}
	}
	return false
}
