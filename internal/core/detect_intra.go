package core

// The within-epoch detector (paper §IV-C-3). Every issued one-sided
// operation is unordered with everything after it until its epoch closes,
// so each new operation and each local access must be checked against the
// operations still pending in the epoch. The rule for one pair lives in
// checkLocalVsPending and checkOpVsPending, shared with the pairwise
// reference scan (pairwise.go); checkEpoch runs them only on the pending
// operations an address index says can overlap, visiting them in program
// order, so its reports are byte-identical to the reference's while its
// cost follows the overlapping pairs instead of all pending pairs.
import (
	"fmt"
	"slices"

	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/trace"
)

// detectIntraEpoch finds conflicts inside single epochs (paper §IV-C-3,
// error class 1; Figures 1 and 2a). Within an epoch, issued one-sided
// operations are unordered with everything that follows them up to the
// closing synchronization call, so:
//
//   - a local access overlapping the origin buffer of an issued Get
//     conflicts (the Get may complete at any time up to the close);
//   - a local store overlapping the origin buffer of an issued Put or
//     Accumulate conflicts (the transfer may read the buffer at any time);
//   - two issued operations conflict if their origin buffers overlap with
//     at least one writer, or if their target regions at the same target
//     process overlap incompatibly per Table I.
func (a *Analyzer) detectIntraEpoch() error {
	a.report.EpochsChecked += len(a.epochs)
	scope := func(i int) string {
		e := a.epochs[i]
		return fmt.Sprintf("epoch %d (rank %d, %s)", i, e.Rank, e.Kind)
	}
	return a.eachScope(len(a.epochs), "detect_intra", scope, func(i int, col *collector) error {
		if col.intra == nil {
			col.intra = &intraIndex{targets: make([]spanList, a.m.Set.Ranks())}
		}
		return a.checkEpoch(a.epochs[i], col)
	})
}

// localSide is one origin-process buffer an issued operation touches: the
// origin buffer (read by Put/Acc-family, written by Get) and, for fetching
// atomics, the result buffer (written at completion).
type localSide struct {
	fp    model.Footprint
	write bool
	role  string // "origin" or "result", for diagnostics
}

// pendingOp is one issued operation of an epoch.
type pendingOp struct {
	ev     *trace.Event
	sides  [2]localSide // the origin side, then the result side if any
	nsides int
	target model.Footprint
	tw     int32
	// localDone is set by Win_flush_local: the operation's local buffers
	// are complete, so later local accesses are ordered after them.
	localDone bool
}

func (o *pendingOp) locals() []localSide { return o.sides[:o.nsides] }

// newPendingOp computes the footprints of the issued operation ev,
// appending their intervals to arena, and returns the operation and the
// extended arena.
func (a *Analyzer) newPendingOp(ev *trace.Event, arena []memory.Interval) (pendingOp, []memory.Interval, error) {
	origin, arena, err := a.m.AppendOriginFootprint(arena, ev)
	if err != nil {
		return pendingOp{}, arena, err
	}
	o := pendingOp{ev: ev, nsides: 1}
	o.sides[0] = localSide{fp: origin, write: ev.Kind == trace.KindGet, role: "origin"}
	if ev.ResultCount > 0 {
		var result model.Footprint
		if result, arena, err = a.m.AppendResultFootprint(arena, ev); err != nil {
			return pendingOp{}, arena, err
		}
		o.sides[1] = localSide{fp: result, write: true, role: "result"}
		o.nsides = 2
	}
	if o.target, arena, err = a.m.AppendTargetFootprint(arena, ev); err != nil {
		return pendingOp{}, arena, err
	}
	o.tw = o.target.Rank
	return o, arena, nil
}

// flushTarget resolves the world rank a Win_flush or Win_flush_local
// completes operations to; all reports the flush_all forms.
func (a *Analyzer) flushTarget(ev *trace.Event) (tw int32, all bool, err error) {
	if ev.Target < 0 {
		return 0, true, nil
	}
	tw, err = lockTargetWorld(a.m, ev)
	return tw, false, err
}

// checkLocalVsPending is the within-epoch rule for a local load or store
// ev, with footprint acc, against the pending operation o: it conflicts
// with every local side of o it overlaps, unless both only read or a
// flush_local completed o's local buffers.
func (a *Analyzer) checkLocalVsPending(col *collector, e *Epoch, ev *trace.Event, acc model.Footprint, o *pendingOp) {
	if o.localDone {
		return
	}
	accWrite := ev.Kind == trace.KindStore
	for _, side := range o.locals() {
		iv, overlap := acc.Overlaps(side.fp)
		if !overlap || (!accWrite && !side.write) {
			continue
		}
		a.addIntra(col, e, &Violation{
			Severity: SevError,
			Class:    WithinEpoch,
			Rule: fmt.Sprintf("local %s overlaps the %s buffer of a pending %s in the same epoch",
				ev.Kind, side.role, o.ev.Kind),
			A: *o.ev, B: *ev, Win: e.Win, Overlap: iv,
		})
	}
}

// checkOpVsPending is the within-epoch rule for a newly issued operation n
// against the pending operation o: their local sides conflict when they
// overlap with at least one writer (unless a flush_local completed o's),
// and their targets conflict when they overlap at the same process with
// compatibility other than BOTH.
func (a *Analyzer) checkOpVsPending(col *collector, e *Epoch, n, o *pendingOp) {
	if !o.localDone {
		for _, os := range o.locals() {
			for _, ns := range n.locals() {
				if !os.write && !ns.write {
					continue
				}
				if iv, ok := ns.fp.Overlaps(os.fp); ok {
					a.addIntra(col, e, &Violation{
						Severity: SevError,
						Class:    WithinEpoch,
						Rule: fmt.Sprintf("%s buffer of %s overlaps the %s buffer of %s within one epoch",
							ns.role, n.ev.Kind, os.role, o.ev.Kind),
						A: *o.ev, B: *n.ev, Win: e.Win, Overlap: iv,
					})
				}
			}
		}
	}
	if o.tw == n.tw {
		if iv, ok := n.target.Overlaps(o.target); ok {
			if EffectiveCompat(o.ev, n.ev) != Both {
				a.addIntra(col, e, &Violation{
					Severity: SevError,
					Class:    WithinEpoch,
					Rule: fmt.Sprintf("%s and %s to overlapping target regions within one epoch",
						o.ev.Kind, n.ev.Kind),
					A: *o.ev, B: *n.ev, Win: e.Win, Overlap: iv,
				})
			}
		}
	}
}

// checkEpoch finds conflicts inside one epoch, reporting into col.
// Win_flush completes all pending operations to its target (removing them
// from consideration); Win_flush_local completes only their local buffers.
// Each check runs the pair rules on the candidates the index returns, in
// program order, so the reports match a scan over every pending operation.
func (a *Analyzer) checkEpoch(e *Epoch, col *collector) error {
	ix := col.intra
	ix.reset()
	ix.ops = slices.Grow(ix.ops, len(e.Ops))
	t := a.m.Set.Traces[e.Rank]
	next := 0 // e.Ops[next] is the epoch's next operation (e.Ops ascends by seq)
	for seq := e.Start + 1; seq < e.End && seq < int64(len(t.Events)); seq++ {
		ev := &t.Events[seq]
		switch {
		case ev.Kind == trace.KindWinFlush && ev.Win == e.Win:
			tw, all, err := a.flushTarget(ev)
			if err != nil {
				return err
			}
			if all {
				ix.reset()
			} else {
				ix.flush(tw)
			}
		case ev.Kind == trace.KindWinFlushLocal && ev.Win == e.Win:
			tw, all, err := a.flushTarget(ev)
			if err != nil {
				return err
			}
			ix.flushLocal(tw, all)
		case ev.Kind.IsLocalAccess():
			acc := model.AccessFootprint(ev)
			for _, i := range ix.localCandidates(acc, ev.Kind == trace.KindStore) {
				a.checkLocalVsPending(col, e, ev, acc, &ix.ops[i])
			}
		case next < len(e.Ops) && e.Ops[next].Seq == seq:
			next++
			n, arena, err := a.newPendingOp(ev, ix.arena)
			ix.arena = arena
			if err != nil {
				return err
			}
			for _, i := range ix.opCandidates(&n) {
				a.checkOpVsPending(col, e, &n, &ix.ops[i])
			}
			ix.add(n)
		}
	}
	return nil
}

// intraIndex is the within-epoch detector's reusable state: the
// operations of the epoch being checked and an address index over the
// footprints of the pending ones. It lives on the collector like
// shadowTables, so one index serves the whole analysis and is reset per
// epoch: once its buffers have grown, checking an epoch allocates
// nothing but the violations it reports.
type intraIndex struct {
	ops   []pendingOp       // the epoch's issued operations, in program order
	arena []memory.Interval // their footprints' intervals; valid for one epoch only

	// writes and reads index the local sides of the operations whose
	// local buffers are still pending: writes the Get origins and
	// fetching-atomic results, reads the Put and Accumulate origins.
	writes, reads spanList
	// targets[tw] indexes the target footprints at world rank tw of the
	// operations not yet flushed; touched lists the ranks given entries
	// since the last reset.
	targets []spanList
	touched []int32

	cand []int32 // candidate buffer, op indexes
}

// reset empties the index for a new epoch, keeping its capacity. It is
// also what Win_flush_all does: every pending operation completes.
func (ix *intraIndex) reset() {
	ix.ops = ix.ops[:0]
	ix.arena = ix.arena[:0]
	ix.writes.reset()
	ix.reads.reset()
	for _, tw := range ix.touched {
		ix.targets[tw].reset()
	}
	ix.touched = ix.touched[:0]
}

// add records the issued operation o as pending.
func (ix *intraIndex) add(o pendingOp) {
	op := int32(len(ix.ops))
	ix.ops = append(ix.ops, o)
	for _, s := range o.locals() {
		if s.write {
			ix.writes.insert(s.fp, op)
		} else {
			ix.reads.insert(s.fp, op)
		}
	}
	l := &ix.targets[o.tw]
	if len(l.spans) == 0 {
		ix.touched = append(ix.touched, o.tw)
	}
	l.insert(o.target, op)
}

// flush completes the pending operations to world rank tw (Win_flush).
func (ix *intraIndex) flush(tw int32) {
	if tw >= 0 && int(tw) < len(ix.targets) {
		ix.targets[tw].reset()
	}
	ix.dropLocal(tw)
}

// flushLocal completes the local buffers of the pending operations to
// world rank tw, or of all of them (Win_flush_local). Their target
// footprints stay pending.
func (ix *intraIndex) flushLocal(tw int32, all bool) {
	for i := range ix.ops {
		if all || ix.ops[i].tw == tw {
			ix.ops[i].localDone = true
		}
	}
	if all {
		ix.writes.reset()
		ix.reads.reset()
		return
	}
	ix.dropLocal(tw)
}

// dropLocal removes the local sides of the operations to tw.
func (ix *intraIndex) dropLocal(tw int32) {
	toTW := func(s span) bool { return ix.ops[s.op].tw == tw }
	ix.writes.spans = slices.DeleteFunc(ix.writes.spans, toTW)
	ix.reads.spans = slices.DeleteFunc(ix.reads.spans, toTW)
}

// localCandidates returns, in program order, the pending operations a local
// access with footprint acc can conflict with: those with a write side it
// may overlap and, for a store, those with a read side it may overlap.
// The result is valid until the next call.
func (ix *intraIndex) localCandidates(acc model.Footprint, store bool) []int32 {
	ix.cand = ix.writes.appendOverlapping(ix.cand[:0], acc)
	if store {
		ix.cand = ix.reads.appendOverlapping(ix.cand, acc)
	}
	return ix.sortedCandidates()
}

// opCandidates returns, in program order, the pending operations the newly
// issued operation n can conflict with: a local side of n queries the
// write sides, and also the read sides if it writes; n's target queries
// the target footprints at its process. The result is valid until the
// next call.
func (ix *intraIndex) opCandidates(n *pendingOp) []int32 {
	ix.cand = ix.cand[:0]
	for _, s := range n.locals() {
		ix.cand = ix.writes.appendOverlapping(ix.cand, s.fp)
		if s.write {
			ix.cand = ix.reads.appendOverlapping(ix.cand, s.fp)
		}
	}
	ix.cand = ix.targets[n.tw].appendOverlapping(ix.cand, n.target)
	return ix.sortedCandidates()
}

func (ix *intraIndex) sortedCandidates() []int32 {
	slices.Sort(ix.cand)
	ix.cand = slices.Compact(ix.cand)
	return ix.cand
}

// span is the address hull [lo, hi) of one footprint of ops[op].
type span struct {
	lo, hi uint64
	op     int32
}

// spanList is a set of spans sorted by lo. maxLen is at least the length
// of every span in the list, so every span that can reach an address q
// starts after q-maxLen and a query binary-searches past the rest.
type spanList struct {
	spans  []span
	maxLen uint64
}

func (l *spanList) reset() {
	l.spans = l.spans[:0]
	l.maxLen = 0
}

// insert adds the hull of fp for op; a footprint without bytes can overlap
// nothing and is not indexed.
func (l *spanList) insert(fp model.Footprint, op int32) {
	lo, hi, ok := hull(fp)
	if !ok {
		return
	}
	s := span{lo: lo, hi: hi, op: op}
	if n := len(l.spans); n == 0 || l.spans[n-1].lo <= lo {
		l.spans = append(l.spans, s)
	} else {
		l.spans = slices.Insert(l.spans, l.after(lo), s)
	}
	l.maxLen = max(l.maxLen, hi-lo)
}

// after returns the index of the first span starting after address q.
func (l *spanList) after(q uint64) int {
	i, j := 0, len(l.spans)
	for i < j {
		h := int(uint(i+j) >> 1)
		if l.spans[h].lo > q {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// appendOverlapping appends to out the op of every span that overlaps the
// hull of fp.
func (l *spanList) appendOverlapping(out []int32, fp model.Footprint) []int32 {
	lo, hi, ok := hull(fp)
	if !ok || len(l.spans) == 0 {
		return out
	}
	i := 0
	if lo > l.maxLen {
		i = l.after(lo - l.maxLen)
	}
	for ; i < len(l.spans) && l.spans[i].lo < hi; i++ {
		if l.spans[i].hi > lo {
			out = append(out, l.spans[i].op)
		}
	}
	return out
}

// hull returns the smallest interval holding every non-empty interval of
// fp, and false if there is none.
func hull(fp model.Footprint) (lo, hi uint64, ok bool) {
	for _, iv := range fp.Intervals {
		if iv.Empty() {
			continue
		}
		if !ok || iv.Lo < lo {
			lo = iv.Lo
		}
		if !ok || iv.Hi > hi {
			hi = iv.Hi
		}
		ok = true
	}
	return lo, hi, ok
}
