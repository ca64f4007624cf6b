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
//     map keyed by interned operand and rule IDs (crossKey), so a repeat
//     of an already reported pair costs one integer-keyed lookup and a
//     count, and only the first occurrence builds the Violation.
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

// localRuleKey caches the step-2 rule IDs per (local class, remote kind);
// the no-overlap variant additionally names the window (window IDs start
// at 0, so the variant needs its own flag, not a sentinel).
type localRuleKey struct {
	cls       Op
	kind      trace.Kind
	win       int32
	noOverlap bool
}

// crossKey is a cross-process violation's dedup identity over interned
// IDs: the unordered operand pair (lower ID first), the rule and the
// window. Operands and rules are interned by their rendered text, so two
// crossKeys are equal exactly when the violations' Key() strings are.
type crossKey struct {
	opLo, opHi, rule, win int32
}

// shadowTables is the shadow engine's state. The store, the stored-op
// arena and the footprint buffers are reset between regions but keep
// their capacity; the interning tables (access sites, operand strings,
// operation classes, rule texts) keep growing. One table set serves the
// whole analysis, so every site, class and rule is interned and rendered
// at most once.
type shadowTables struct {
	a  *Analyzer
	st *shadow.Store

	ops    []storedOp        // arena: Access.Payload indexes this
	opSite []shadow.SiteID   // site of each stored op, parallel to ops
	tgt    []memory.Interval // the region's target footprints, which ops point into
	local  []memory.Interval // forEachLocalAccess's footprint buffer

	depot   *shadow.Depot
	siteOp  []int32          // operand ID per SiteID
	opIndex map[string]int32 // operand string (operandString short=false) → operand ID
	opText  []string         // operand ID → operand string

	classIdx map[opClassKey]int32
	classRep []*trace.Event // representative event per class

	pairRules  map[[2]trace.Kind]int32
	localRules map[localRuleKey]int32
	ruleIndex  map[string]int32 // rule text → rule ID
	ruleText   []string         // rule ID → rule text
}

func newShadowTables(a *Analyzer) *shadowTables {
	return &shadowTables{
		a:          a,
		st:         shadow.NewStore(),
		depot:      shadow.NewDepot(),
		opIndex:    map[string]int32{},
		classIdx:   map[opClassKey]int32{},
		pairRules:  map[[2]trace.Kind]int32{},
		localRules: map[localRuleKey]int32{},
		ruleIndex:  map[string]int32{},
	}
}

// reset empties the per-region state, keeping its capacity.
func (t *shadowTables) reset() {
	t.st.Reset()
	clear(t.ops)
	t.ops = t.ops[:0]
	t.opSite = t.opSite[:0]
	t.tgt = t.tgt[:0]
}

// siteOf interns an event's access site, rendering and interning its
// operand string (shared by dedup keys and witness/report rendering) once.
func (t *shadowTables) siteOf(ev *trace.Event) shadow.SiteID {
	id, fresh := t.depot.Intern(uint8(ev.Kind), ev.File, ev.Line, ev.Func)
	if fresh {
		op := operandString(ev, false)
		opID, ok := t.opIndex[op]
		if !ok {
			opID = int32(len(t.opText))
			t.opIndex[op] = opID
			t.opText = append(t.opText, op)
		}
		t.siteOp = append(t.siteOp, opID)
	}
	return id
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

// internRule returns the ID of a rule text.
func (t *shadowTables) internRule(r string) int32 {
	if id, ok := t.ruleIndex[r]; ok {
		return id
	}
	id := int32(len(t.ruleText))
	t.ruleIndex[r] = id
	t.ruleText = append(t.ruleText, r)
	return id
}

func (t *shadowTables) pairRule(prev, cur trace.Kind) int32 {
	k := [2]trace.Kind{prev, cur}
	if r, ok := t.pairRules[k]; ok {
		return r
	}
	r := t.internRule(rmaRuleText(prev, cur))
	t.pairRules[k] = r
	return r
}

func (t *shadowTables) localRule(cls Op, kind trace.Kind, win int32, noOverlap bool) int32 {
	k := localRuleKey{cls: cls, kind: kind, noOverlap: noOverlap}
	if noOverlap {
		k.win = win
	}
	if r, ok := t.localRules[k]; ok {
		return r
	}
	r := t.internRule(localRuleText(cls, kind, win, noOverlap))
	t.localRules[k] = r
	return r
}

// keyOf interns the identity of a violation between the stored op at
// payload and an event of site cur.
func (t *shadowTables) keyOf(payload int32, cur shadow.SiteID, rule, win int32) crossKey {
	a, b := t.siteOp[t.opSite[payload]], t.siteOp[cur]
	if b < a {
		a, b = b, a
	}
	return crossKey{opLo: a, opHi: b, rule: rule, win: win}
}

// seen counts one more occurrence of k if col already reported it.
func (col *collector) seen(k crossKey) bool {
	if v := col.fold[k]; v != nil {
		v.Count++
		return true
	}
	return false
}

// report records the first occurrence of k: v gets its dedup key preset
// from the interned operand strings and its witness attached, and the
// survivor it folds into is remembered under k.
func (t *shadowTables) report(col *collector, k crossKey, rg dag.Region, aEpoch, bEpoch *Epoch, v *Violation) {
	presetKey(v, t.opText[k.opLo], t.opText[k.opHi])
	t.a.addCross(col, rg, aEpoch, bEpoch, v)
	if col.fold == nil {
		col.fold = map[crossKey]*Violation{}
	}
	col.fold[k] = col.vindex[v.Key()]
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
	t.opSite = slices.Grow(t.opSite, n)
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
			curSite := t.siteOf(ev)
			clock := a.d.ClockRef(id)

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
					k := t.keyOf(payload, curSite, t.pairRule(prev.ev.Kind, ev.Kind), ev.Win)
					if col.seen(k) {
						return
					}
					iv, _ := target.Overlaps(prev.target)
					t.report(col, k, rg, prev.epoch, cur.epoch, &Violation{
						Severity: a.rmaPairSeverity(prev, &cur),
						Class:    AcrossProcesses,
						Rule:     t.ruleText[k.rule],
						A:        *prev.ev, B: *ev, Win: ev.Win, Overlap: iv, Region: rg.Index,
					})
				})

			payload := int32(len(t.ops))
			t.ops = append(t.ops, cur)
			t.opSite = append(t.opSite, curSite)
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
// as the pairwise reference's conflict test does. It keeps nothing of fp
// after it returns.
func (t *shadowTables) checkLocal(rg dag.Region, ev *trace.Event, cls Op,
	fp model.Footprint, storeRule bool, col *collector) {
	a := t.a
	id := ev.ID()
	evEpoch := a.epochOf[id.Rank][id.Seq]
	q := shadow.Query{Rank: ev.Rank, Seq: id.Seq, Clock: a.d.ClockRef(id)}
	evSite := shadow.SiteID(-1)

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
				if evSite < 0 {
					evSite = t.siteOf(ev)
				}
				// A ModeOverlap match proves overlap, so an empty one comes
				// from a ModeAll group: the no-overlap store rule.
				k := t.keyOf(payload, evSite, t.localRule(cls, op.ev.Kind, win, overlapIv.Empty()), win)
				if col.seen(k) {
					return
				}
				t.report(col, k, rg, op.epoch, evEpoch, &Violation{
					Severity: a.localPairSeverity(op),
					Class:    AcrossProcesses,
					Rule:     t.ruleText[k.rule],
					A:        *op.ev, B: *ev, Win: win, Overlap: overlapIv, Region: rg.Index,
				})
			})
	})
}
