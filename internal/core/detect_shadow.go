package core

// The shadow cross-process engine, the detector Analyzer runs: the
// semantics of the pairwise reference scan (pairwise.go), restated over
// internal/shadow's shadow-memory store so the per-vector cost drops from
// O(ops²) pairwise scans to interval-keyed cell lookups plus vector-clock
// binary searches (FastTrack, Flanagan & Freund, PLDI 2009, transposed to
// MC-Checker's epoch model). The contract is byte-identical reports —
// every violation, dedup count, representative instance, and witness
// chain must match PairwiseCrossProcess exactly; the differential test
// sweep and fuzz target enforce it.
//
// How the semantics map onto the store:
//
//   - group classification replaces the per-pair guards. Stored
//     accesses are grouped by (origin rank, operation class) where a
//     class interns (Kind, AccOp, TargetType) — exactly the fields
//     EffectiveCompat and localMode read — so "same rank" and
//     "compatibility BOTH" skip whole groups once per query instead of
//     once per pair;
//   - the DAG Concurrent() calls become the store's concurrent-range
//     binary searches over segment clocks (dag.ClockRef);
//   - byte-overlap guards become shadow-cell membership: a query only
//     walks the cells its footprint touches, and a cell interval is a
//     subset of every member's footprint, so touching one proves
//     overlap. The MPI-2.2 no-overlap store rule (Error × local store)
//     maps to ModeAll, walking the group's full concurrent range;
//   - the store emits matches in vector insertion order, which keeps
//     the first recorded instance of every dedup key — and therefore
//     the surviving representative fields and witness — identical to
//     the pairwise reference;
//   - dedup runs before a Violation exists: each match folds through a
//     map keyed by interned operand IDs and a rule number (foldKey), so a
//     repeat of an already reported pair costs one integer-keyed lookup
//     and a count, and only the first occurrence renders its rule text
//     and builds the Violation. A stored operation's operand is resolved
//     only when it is first matched;
//   - what cannot match costs nothing past the footprint: a local access
//     at a rank no stored operation of the region targets skips the
//     window lookup and the probe, and the store answers a probe of a
//     vector with nothing stored before doing any work.
import (
	"slices"

	"repro/internal/dag"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// opClassKey interns the event fields that all group-level decisions
// (EffectiveCompat, OpOf/Table) are pure functions of.
type opClassKey struct {
	kind       trace.Kind
	accOp      trace.AccOp
	targetType int32
}

// shadowTables is the shadow engine's state. The store, the stored-op
// arena, the footprint buffers and the targeted ranks are reset between
// regions but keep their capacity; the operation classes keep growing.
// One table set serves the whole analysis, so every class is interned at
// most once.
type shadowTables struct {
	a  *Analyzer
	st *shadow.Store

	ops      []storedOp        // arena: Access.Payload indexes this
	operand  []int32           // operand ID of each stored op once first matched, else -1; parallel to ops
	tgt      []memory.Interval // the region's target footprints, which ops point into
	local    []memory.Interval // forEachLocalAccess's footprint buffer
	targeted []bool            // targeted[r]: a stored op of the region targets world rank r

	classIdx map[opClassKey]int32
	classRep []*trace.Event // representative event per class
}

func newShadowTables(a *Analyzer) *shadowTables {
	return &shadowTables{
		a:        a,
		st:       shadow.NewStore(),
		targeted: make([]bool, a.m.Set.Ranks()),
		classIdx: map[opClassKey]int32{},
	}
}

// reset empties the per-region state, keeping its capacity.
func (t *shadowTables) reset() {
	t.st.Reset()
	clear(t.ops)
	t.ops = t.ops[:0]
	t.operand = t.operand[:0]
	t.tgt = t.tgt[:0]
	clear(t.targeted)
}

// classOf interns an event's operation class.
func (t *shadowTables) classOf(ev *trace.Event) int32 {
	k := opClassKey{kind: ev.Kind, accOp: ev.AccOp, targetType: ev.TargetType}
	if id, ok := t.classIdx[k]; ok {
		return id
	}
	id := int32(len(t.classRep))
	t.classIdx[k] = id
	t.classRep = append(t.classRep, ev)
	return id
}

// operandAt returns the operand ID of the stored op at payload, resolving
// it on the op's first match.
func (t *shadowTables) operandAt(payload int32) int32 {
	if t.operand[payload] < 0 {
		t.operand[payload] = t.a.operandOf(t.ops[payload].ev)
	}
	return t.operand[payload]
}

func (t *shadowTables) checkRegion(rg dag.Region, col *collector) error {
	t.reset()

	// Step 1: remote one-sided operations. Each is checked against the
	// store (same check-then-insert discipline as the pairwise vector
	// scan, so an operation never matches itself or its successors).
	if err := t.matchRMA(rg, col); err != nil {
		return err
	}

	// Step 2: local operations at each target process, via the walker
	// shared with the pairwise reference.
	var err error
	t.local, err = t.a.forEachLocalAccess(rg, t.local, func(ev *trace.Event, cls Op, fp model.Footprint, storeRule bool) error {
		t.checkLocal(rg, ev, cls, fp, storeRule, col)
		return nil
	})
	return err
}

// matchRMA checks and stores the region's remote one-sided operations.
// It counts them first, so the stored-op arena and the store's member
// arena grow once per region rather than by appends.
func (t *shadowTables) matchRMA(rg dag.Region, col *collector) error {
	a := t.a
	n := 0
	for r := 0; r < a.m.Set.Ranks(); r++ {
		events := a.m.Set.Traces[r].Events
		lo, hi := rg.Span(int32(r))
		for seq := lo; seq < hi; seq++ {
			if events[seq].Kind.IsRMAComm() {
				n++
			}
		}
	}
	t.ops = slices.Grow(t.ops, n)
	t.operand = slices.Grow(t.operand, n)
	t.st.Grow(n)

	for r := 0; r < a.m.Set.Ranks(); r++ {
		tr := a.m.Set.Traces[r]
		lo, hi := rg.Span(int32(r))
		for seq := lo; seq < hi; seq++ {
			ev := &tr.Events[seq]
			if !ev.Kind.IsRMAComm() {
				continue
			}
			var (
				target model.Footprint
				err    error
			)
			target, t.tgt, err = a.m.AppendTargetFootprint(t.tgt, ev)
			if err != nil {
				return err
			}
			id := ev.ID()
			key := shadow.VectorKey{Win: ev.Win, Target: target.Rank}
			cur := storedOp{ev: ev, target: target, epoch: a.epochOf[id.Rank][id.Seq]}
			curOperand := int32(-1)
			clock := a.d.ClockRef(id)
			t.targeted[target.Rank] = true

			t.st.Query(key, shadow.Query{Rank: ev.Rank, Seq: id.Seq, Clock: clock},
				target.Intervals,
				func(rank, class int32) shadow.Mode {
					if rank == ev.Rank {
						// Same-process pairs are the intra-epoch detector's job.
						return shadow.ModeSkip
					}
					if EffectiveCompat(t.classRep[class], ev) == Both {
						return shadow.ModeSkip
					}
					return shadow.ModeOverlap
				},
				func(payload int32) {
					prev := &t.ops[payload]
					if curOperand < 0 {
						curOperand = a.operandOf(ev)
					}
					k := newFoldKey(t.operandAt(payload), curOperand, rmaPairRule(prev.ev.Kind, ev.Kind), ev.Win)
					if col.seen(k) {
						return
					}
					iv, _ := target.Overlaps(prev.target)
					v := a.identify(&Violation{
						Severity: a.rmaPairSeverity(prev, &cur),
						Class:    AcrossProcesses,
						A:        *prev.ev, B: *ev, Win: ev.Win, Overlap: iv, Region: rg.Index,
					}, k)
					a.addCross(col, rg, prev.epoch, cur.epoch, v)
					col.remember(k, v)
				})

			payload := int32(len(t.ops))
			t.ops = append(t.ops, cur)
			t.operand = append(t.operand, curOperand)
			t.st.Insert(key, shadow.Access{
				Payload: payload, Rank: ev.Rank, Class: t.classOf(ev),
				Seq: id.Seq, Clock: clock, Target: target.Intervals,
			})
		}
	}
	return nil
}

// checkLocal checks one local access against the store: one query per
// distinct window the footprint touches, probing with the full footprint
// as the pairwise reference's conflict test does. An access at a rank no
// stored op of the region targets can match nothing and returns at once.
// It keeps nothing of fp after it returns.
func (t *shadowTables) checkLocal(rg dag.Region, ev *trace.Event, cls Op,
	fp model.Footprint, storeRule bool, col *collector) {
	if !t.targeted[fp.Rank] {
		return
	}
	a := t.a
	id := ev.ID()
	evEpoch := a.epochOf[id.Rank][id.Seq]
	q := shadow.Query{Rank: ev.Rank, Seq: id.Seq, Clock: a.d.ClockRef(id)}
	evOperand := int32(-1)

	a.forEachWindow(fp, func(win int32) {
		t.st.Query(shadow.VectorKey{Win: win, Target: fp.Rank}, q, fp.Intervals,
			func(rank, class int32) shadow.Mode {
				if rank == ev.Rank {
					return shadow.ModeSkip
				}
				return localMode(t.classRep[class].Kind, cls, storeRule)
			},
			func(payload int32) {
				op := &t.ops[payload]
				overlapIv, _ := fp.Overlaps(op.target)
				if evOperand < 0 {
					evOperand = a.operandOf(ev)
				}
				// A ModeOverlap match proves overlap, so an empty one comes
				// from a ModeAll group: the no-overlap store rule.
				k := newFoldKey(t.operandAt(payload), evOperand, localPairRule(cls, op.ev.Kind, overlapIv.Empty()), win)
				if col.seen(k) {
					return
				}
				v := a.identify(&Violation{
					Severity: a.localPairSeverity(op),
					Class:    AcrossProcesses,
					A:        *op.ev, B: *ev, Win: win, Overlap: overlapIv, Region: rg.Index,
				}, k)
				a.addCross(col, rg, op.epoch, evEpoch, v)
				col.remember(k, v)
			})
	})
}
