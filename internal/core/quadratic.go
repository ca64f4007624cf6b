package core

import (
	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// QuadraticCrossProcess is the straightforward cross-process detector the
// paper describes and rejects in §IV-C-4: "DN-Analyzer examining each pair
// of operations in a concurrent region against the compatibility table.
// Unfortunately, the time complexity is combinatorial with respect to the
// total number of operations within one concurrent region."
//
// It reports the same conflicts as Analyzer's per-vector detector (same
// rules, same deduplication) and exists as the ablation baseline for the
// linear-vs-quadratic benchmark and as the all-pairs oracle tests compare
// signatures against. Its counts and representative instances follow its
// own pair order, so only the set of signatures is comparable.
func QuadraticCrossProcess(m *model.Model, d *dag.DAG) (*Report, error) {
	return referenceScan(m, d, (*Analyzer).quadraticRegion)
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

func (a *Analyzer) quadraticRegion(rg dag.Region, col *collector) error {
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
			a.checkSitePair(rg, &sites[i], &sites[j], col)
		}
	}
	return nil
}

func (a *Analyzer) checkSitePair(rg dag.Region, x, y *site, col *collector) {
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
		a.addCross(col, rg, x.epoch, y.epoch, &Violation{
			Severity: a.rmaPairSeverity(&sx, &sy),
			Class:    AcrossProcesses,
			Rule:     rmaRuleText(x.ev.Kind, y.ev.Kind),
			A:        *x.ev, B: *y.ev, Win: x.ev.Win, Overlap: iv, Region: rg.Index,
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
	mode := localMode(x.ev.Kind, y.cls, y.storeRule)
	if mode == shadow.ModeSkip {
		return
	}
	overlapIv, overlap := y.fp.Overlaps(x.fp)
	if !overlap && mode != shadow.ModeAll {
		return
	}
	sx := storedOp{ev: x.ev, target: x.fp, epoch: x.epoch}
	a.addCross(col, rg, x.epoch, y.epoch, &Violation{
		Severity: a.localPairSeverity(&sx),
		Class:    AcrossProcesses,
		Rule:     localRuleText(y.cls, x.ev.Kind, x.ev.Win, overlapIv.Empty()),
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
