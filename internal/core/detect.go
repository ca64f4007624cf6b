package core

import (
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// Options selects which detectors run; the defaults (via Analyze) run both.
// Disabling one reproduces the baselines the paper compares against:
// SyncChecker detects only within-epoch errors (§VII).
//
// The embedded Scope carries the cancellation context, the metrics
// registry and the timeline recorder; all three may be nil.
type Options struct {
	IntraEpoch   bool
	CrossProcess bool

	obs.Scope
}

// ctxErr reports the cancellation state of the analysis context; a nil
// Ctx never cancels.
func (o *Options) ctxErr() error {
	if err := o.Err(); err != nil {
		return fmt.Errorf("analysis canceled: %w", err)
	}
	return nil
}

// DefaultOptions runs the full MC-Checker analysis.
func DefaultOptions() Options {
	return Options{IntraEpoch: true, CrossProcess: true}
}

// Analyzer runs DN-Analyzer's detection phase over a built model, matching
// and DAG (paper §IV-C-3 and §IV-C-4).
type Analyzer struct {
	m       *model.Model
	d       *dag.DAG
	epochs  []*Epoch
	opEpoch map[trace.ID]*Epoch
	opts    Options

	// epochOf is opEpoch indexed densely by rank, then seq: nil where the
	// event is no RMA operation. The cross-process detector builds it once
	// (indexEpochs) before it walks the regions.
	epochOf [][]*Epoch

	report *Report
	vindex map[string]*Violation
}

// NewAnalyzer assembles an analyzer from the pipeline pieces; epochs and
// opEpoch are what one ExtractEpochs call returned.
func NewAnalyzer(m *model.Model, d *dag.DAG, epochs []*Epoch, opEpoch map[trace.ID]*Epoch, opts Options) *Analyzer {
	return &Analyzer{
		m: m, d: d, epochs: epochs, opEpoch: opEpoch, opts: opts,
		report: &Report{}, vindex: map[string]*Violation{},
	}
}

// Run executes the enabled detectors and returns the report.
func (a *Analyzer) Run() (*Report, error) {
	a.report.EventsAnalyzed = a.m.Set.TotalEvents()
	if a.opts.IntraEpoch {
		if err := a.opts.Phase("detect_intra", a.detectIntraEpoch); err != nil {
			return nil, err
		}
	}
	if a.opts.CrossProcess {
		if err := a.opts.Phase("detect_cross", a.detectCrossProcess); err != nil {
			return nil, err
		}
	}
	a.report.Sort()
	reg := a.opts.Obs
	reg.Counter("mcchecker_analysis_events_total").Add(int64(a.report.EventsAnalyzed))
	reg.Counter("mcchecker_analysis_regions_total").Add(int64(a.report.Regions))
	reg.Counter("mcchecker_analysis_epochs_total").Add(int64(a.report.EpochsChecked))
	reg.Counter("mcchecker_analysis_violations_total").Add(int64(len(a.report.Violations)))
	return a.report, nil
}

// originClass returns how an RMA operation uses its origin buffer: Put and
// Accumulate read it (load-like), Get writes it (store-like).
func originClass(k trace.Kind) Op {
	if k == trace.KindGet {
		return OpStore
	}
	return OpLoad
}

// messageBufferClass classifies how a point-to-point or collective call
// uses the buffer logged in its origin fields, per the paper's rule that
// "the local operations include the local load/store and all MPI calls
// performed to a local buffer" (§IV-C-4). The trace records one buffer per
// call: the send side for sends and contributing collectives, the receive
// side for receives and Scatter, and the root-dependent single buffer for
// Bcast. Receive-side buffers of Gather/Allgather/Alltoall are not logged —
// a documented under-approximation shared with the paper's scope.
func (a *Analyzer) messageBufferClass(ev *trace.Event) (Op, bool) {
	if ev.OriginCount <= 0 {
		return 0, false
	}
	switch ev.Kind {
	case trace.KindSend, trace.KindIsend:
		return OpLoad, true
	case trace.KindRecv, trace.KindIrecv, trace.KindScatter:
		return OpStore, true
	case trace.KindReduce, trace.KindAllreduce, trace.KindGather,
		trace.KindAllgather, trace.KindAlltoall:
		return OpLoad, true
	case trace.KindBcast:
		ci, err := a.m.Comm(ev.Comm)
		if err != nil {
			return 0, false
		}
		root, err := ci.World(ev.Peer)
		if err != nil {
			return 0, false
		}
		if root == ev.Rank {
			return OpLoad, true
		}
		return OpStore, true
	}
	return 0, false
}

// storedOp is one remote one-sided operation recorded in a window vector
// during cross-process detection (paper §IV-C-4).
type storedOp struct {
	ev     *trace.Event
	target model.Footprint
	epoch  *Epoch
}

// detectCrossProcess finds conflicts between processes (paper §IV-C-4,
// error class 2; Figures 2b–2d). For each concurrent region it records all
// one-sided operations per (window, target process) vector, checking each
// new operation against the stored ones, then checks every local operation
// (loads, stores, and RMA origin-buffer accesses) of each target process
// against the stored remote operations — the two-step approach of the
// paper, rather than examining every pair of operations in the region. The
// vectors live in the shadow engine's store (detect_shadow.go).
func (a *Analyzer) detectCrossProcess() error {
	regions := a.d.Regions()
	a.report.Regions = len(regions)
	a.indexEpochs()
	scope := func(i int) string { return fmt.Sprintf("region %d", i) }
	return a.eachScope(len(regions), "detect_cross", scope, func(i int, col *collector) error {
		if col.shadow == nil {
			col.shadow = newShadowTables(a)
		}
		return col.shadow.checkRegion(regions[i], col)
	})
}

// indexEpochs builds epochOf from the epochs' Ops, the lists ExtractEpochs
// fills opEpoch from, so the two hold the same assignment; walking the
// lists skips hashing every operation. model.Build rejects any event
// whose Seq is not its index in the rank's trace, so every operation has
// a slot.
func (a *Analyzer) indexEpochs() {
	traces := a.m.Set.Traces
	total := 0
	for _, t := range traces {
		total += len(t.Events)
	}
	slots := make([]*Epoch, total)
	a.epochOf = make([][]*Epoch, len(traces))
	for r, t := range traces {
		a.epochOf[r], slots = slots[:len(t.Events):len(t.Events)], slots[len(t.Events):]
	}
	for _, e := range a.epochs {
		for _, id := range e.Ops {
			a.epochOf[id.Rank][id.Seq] = e
		}
	}
}

// collector receives the violations of the analysis scopes.
type collector struct {
	report *Report
	vindex map[string]*Violation

	// fold maps the interned identity of each cross-process violation the
	// shadow engine reported into this collector to its survivor in
	// vindex, so a repeated occurrence is counted without being built.
	fold map[crossKey]*Violation
	// shadow is the shadow engine's tables (detect_shadow.go) and intra
	// the within-epoch detector's index (detect_intra.go), each created on
	// first use and kept for every later scope of the analysis.
	shadow *shadowTables
	intra  *intraIndex
}

func (c *collector) add(v *Violation) { c.report.add(c.vindex, v) }

// eachScope runs check over n scopes (epochs, regions) in index order,
// all on one collector, and stops at the first error. The context is
// checked before each scope, and each scope's check is recorded as a span
// on opts.Trace (track names the detector); the scope string is only
// built when tracing is on.
func (a *Analyzer) eachScope(n int, track string, scope func(i int) string,
	check func(i int, col *collector) error) error {
	tr := a.opts.Trace
	col := &collector{report: a.report, vindex: a.vindex}
	for i := 0; i < n; i++ {
		if err := a.opts.ctxErr(); err != nil {
			return err
		}
		var sp *tracing.Span
		if tr != nil {
			s := scope(i)
			sp = tr.Start(track, tr.Lane("main", s), s)
		}
		err := check(i, col)
		sp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachLocalAccess walks a region rank-major and visits every local
// buffer access the cross-process detector's step 2 must check: plain
// loads and stores (with the MPI-2.2 no-overlap store rule in force),
// RMA origin buffers (load-like for Put/Acc, store-like for Get; store
// rule off per paper §IV-C-4), result buffers of fetching atomics
// (store-class at completion), and the logged message buffers of
// point-to-point and collective calls ("all MPI calls performed to a
// local buffer"). Shared by the shadow engine and the pairwise reference
// so the two cannot drift on what counts as a local access.
//
// Every visited footprint is built in buf, which the next footprint
// overwrites: visit must not keep fp's intervals after it returns. The
// walk returns buf, grown as needed, for the caller to pass to the next
// walk.
func (a *Analyzer) forEachLocalAccess(rg dag.Region, buf []memory.Interval,
	visit func(ev *trace.Event, cls Op, fp model.Footprint, storeRuleApplies bool) error) ([]memory.Interval, error) {
	var (
		fp  model.Footprint
		err error
	)
	for r := 0; r < a.m.Set.Ranks(); r++ {
		t := a.m.Set.Traces[r]
		lo, hi := rg.Span(int32(r))
		for seq := lo; seq < hi; seq++ {
			ev := &t.Events[seq]
			switch {
			case ev.Kind.IsLocalAccess():
				cls := OpLoad
				if ev.Kind == trace.KindStore {
					cls = OpStore
				}
				buf = append(buf[:0], memory.Iv(ev.Addr, ev.Size))
				if err = visit(ev, cls, model.Footprint{Rank: ev.Rank, Intervals: buf}, true); err != nil {
					return buf, err
				}
			case ev.Kind.IsRMAComm():
				// The origin buffer access of an RMA call is treated as a
				// local load (Put/Acc) or store (Get); the no-overlap store
				// rule explicitly does not apply to it (paper §IV-C-4).
				if fp, buf, err = a.m.AppendOriginFootprint(buf[:0], ev); err != nil {
					return buf, err
				}
				if err = visit(ev, originClass(ev.Kind), fp, false); err != nil {
					return buf, err
				}
				if ev.ResultCount > 0 {
					// The result buffer of a fetching atomic is written at
					// completion: a store-class local access.
					if fp, buf, err = a.m.AppendResultFootprint(buf[:0], ev); err != nil {
						return buf, err
					}
					if err = visit(ev, OpStore, fp, false); err != nil {
						return buf, err
					}
				}
			default:
				// Point-to-point and collective calls access local buffers
				// too ("all MPI calls performed to a local buffer").
				if cls, ok := a.messageBufferClass(ev); ok {
					if fp, buf, err = a.m.AppendOriginFootprint(buf[:0], ev); err != nil {
						return buf, err
					}
					if err = visit(ev, cls, fp, false); err != nil {
						return buf, err
					}
				}
			}
		}
	}
	return buf, nil
}

// forEachWindow visits each distinct window whose local buffer at fp.Rank
// overlaps fp, in order of first touch. A footprint with several intervals
// in one window visits it once, so an access is checked against each
// window's vector once and every conflict is counted once per access.
func (a *Analyzer) forEachWindow(fp model.Footprint, visit func(win int32)) {
	var buf [4]int32
	seen := buf[:0]
	for _, iv := range fp.Intervals {
		for _, wi := range a.m.WindowsAt(fp.Rank, iv) {
			if slices.Contains(seen, wi.ID) {
				continue
			}
			seen = append(seen, wi.ID)
			visit(wi.ID)
		}
	}
}

// The rule table shared by the cross-process detectors: the shadow engine,
// the pairwise reference (pairwise.go) and the all-pairs baseline
// (quadratic.go) decide and name every conflict through these three
// functions, so they cannot drift apart on a Table I cell or a rule text.

// localMode decides, from Table I, how a local access of class cls
// conflicts with a concurrent remote operation of kind remote on the same
// window: BOTH never conflicts (ModeSkip), NON-OV conflicts on byte
// overlap (ModeOverlap), and ERROR conflicts even without overlap
// (ModeAll) — but only for true local stores (storeRule), not for RMA
// origin-buffer writes, which keep the overlap test (paper §IV-C-4).
func localMode(remote trace.Kind, cls Op, storeRule bool) shadow.Mode {
	opCls, _ := OpOf(remote)
	switch Table(opCls, cls) {
	case Both:
		return shadow.ModeSkip
	case Error:
		if storeRule {
			return shadow.ModeAll
		}
	}
	return shadow.ModeOverlap
}

// rmaRuleText names a conflict between concurrent remote operations of
// kinds prev and cur from different processes.
func rmaRuleText(prev, cur trace.Kind) string {
	return fmt.Sprintf("concurrent %s and %s from different processes overlap in the target window", prev, cur)
}

// localRuleText names a conflict between a local access of class cls and a
// concurrent remote operation of kind remote on window win; noOverlap
// selects the MPI-2.2 store rule's wording, for a conflict without byte
// overlap.
func localRuleText(cls Op, remote trace.Kind, win int32, noOverlap bool) string {
	if noOverlap {
		return fmt.Sprintf("local %s to window %d while a concurrent remote %s updates the window (erroneous even without overlap)",
			cls, win, remote)
	}
	return fmt.Sprintf("local %s at the target process conflicts with a concurrent remote %s", cls, remote)
}

// rmaPairSeverity downgrades conflicts serialized by exclusive locks to
// warnings (paper §VII-A-2: the original lockopts bug with an exclusive
// lock is reported as a warning only).
func (a *Analyzer) rmaPairSeverity(x, y *storedOp) Severity {
	if x.epoch != nil && y.epoch != nil &&
		x.epoch.Kind == EpochLockExclusive && y.epoch.Kind == EpochLockExclusive &&
		x.epoch.Target == y.epoch.Target {
		return SevWarning
	}
	return SevError
}

func (a *Analyzer) localPairSeverity(op *storedOp) Severity {
	if op.epoch != nil && op.epoch.Kind == EpochLockExclusive {
		return SevWarning
	}
	return SevError
}
