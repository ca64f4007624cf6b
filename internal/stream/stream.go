// Package stream implements the online analysis mode the paper proposes as
// future work (§VII-B: "While MC-Checker analyzes the traces offline, we
// can extend it to perform online analysis by leveraging streaming
// processing algorithms").
//
// The Checker is a trace.Sink: the profiler feeds it events as they are
// emitted, and completed concurrent regions are analyzed as soon as the
// global synchronization closing them has been executed by every rank —
// long before the program finishes. Analyzed events are then discarded, so
// memory is bounded by the largest region rather than the whole execution.
//
// # Slab boundaries
//
// A global synchronization (a barrier-like collective spanning all ranks,
// or a fence/create/free on a world window) is a *clean* boundary when no
// cross-boundary state is pending: no open passive-target or PSCW epoch,
// no one-sided operation issued since the last fence of its window, no
// unreceived message, and no unwaited Irecv. At a clean boundary the
// accumulated slab is analyzed with the ordinary offline pipeline and its
// violations are reported through the callback; at an unclean boundary the
// slab simply keeps growing (coalescing regions), preserving exact
// equivalence with offline analysis. The definition events
// (communicators, datatypes, windows) of the slabs already analyzed and
// each rank's last fence on every live window are re-injected at the
// start of each subsequent slab so that the slab is self-contained.
// Reports speak of the trace, not of slabs: a slab's violations and
// witnesses are renumbered from slab positions and slab regions to trace
// positions and trace regions before they are merged, and the report's
// totals count each trace event, region and epoch once, leaving out what
// the re-injected events add to a slab.
package stream

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrEmitAfterFinish is the defined misuse error recorded when Emit is
// called on an already-finished checker. Under the serving daemon a
// late-emitting producer goroutine must not corrupt a finalized report;
// the stray event is dropped and the misuse is observable via Err.
var ErrEmitAfterFinish = errors.New("stream: Emit after Finish (event dropped)")

// Checker consumes runtime events and analyzes completed regions online.
type Checker struct {
	mu    sync.Mutex
	ranks int

	onViolation func(v *core.Violation) // optional, called as slabs complete

	// Per-rank pending (not yet analyzed) events.
	pending [][]trace.Event
	// Per-rank positions (indexes into pending) of global sync events.
	globalPos [][]int

	// Definition events of the slabs analyzed so far, per rank, in
	// original order: each later slab starts with them.
	defs [][]trace.Event

	// Cleanliness state.
	lockDepth    []int // open Win_lock epochs per rank
	lockAllDepth []int
	startDepth   []int            // open Win_start epochs per rank
	postDepth    []int            // open Win_post exposure epochs per rank
	fenceOps     map[[2]int32]int // (rank, win) → ops issued since last fence
	fenceDirty   int              // number of nonzero fenceOps entries
	msgDelta     map[chanKey]int  // sends minus recvs per channel
	msgDirty     int              // number of nonzero msgDelta entries
	irecvOpen    []int            // posted Irecvs not yet waited, per rank
	reqKind      map[reqID]trace.Kind

	// Boundary classification and fence carryover. lastFence and freed,
	// like defs, cover the analyzed slabs only.
	syncs     *core.GlobalSyncs
	lastFence map[[2]int32]trace.Event // (rank, win) → the rank's last fence on win
	freed     map[int32]bool           // win → freed in an analyzed slab

	// regions counts the trace's region delimiters in the analyzed slabs,
	// so it is the trace index of the region the next slab's own events
	// open with; boundary holds, per rank, the delimiter that opened that
	// region: the last event of the rank's previous slab.
	regions  int
	boundary []trace.Event

	slabsAnalyzed int
	report        *core.Report
	vindex        map[string]*core.Violation
	err           error
	tolerant      bool     // degrade failing slabs instead of aborting
	notes         []string // accumulated degradation diagnostics

	// Lifecycle guards. finished latches on the first Finish call:
	// Finish becomes idempotent (repeat calls return the cached result)
	// and later Emits drop their event, recording misuse instead of
	// mutating a report the caller may already hold.
	finished  bool
	finalRep  *core.Report
	finalErr  error
	misuse    error // ErrEmitAfterFinish once a late Emit arrives
	lateEmits int

	// Observability. buffered/peakBuffered track the events held across
	// all ranks — the memory-boundedness claim of online analysis, made
	// checkable. The metric handles are nil without a registry.
	opts          core.Options // analysis options for slabs (Obs rides here)
	buffered      int          // events currently pending across ranks
	peakBuffered  int
	mSlabs        *obs.Counter
	mSlabEvents   *obs.Histogram
	mBoundClean   *obs.Counter
	mBoundUnclean *obs.Counter
	mPeakBuffered *obs.Gauge
}

type chanKey struct {
	comm, src, dst, tag int32
}

type reqID struct {
	rank, req int32
}

var _ trace.Sink = (*Checker)(nil)

// New returns a streaming checker for a world of the given size.
// onViolation (optional) fires once per new distinct violation, as soon as
// the slab containing it completes.
func New(ranks int, onViolation func(v *core.Violation)) *Checker {
	c := &Checker{
		ranks:        ranks,
		onViolation:  onViolation,
		pending:      make([][]trace.Event, ranks),
		globalPos:    make([][]int, ranks),
		defs:         make([][]trace.Event, ranks),
		lockDepth:    make([]int, ranks),
		lockAllDepth: make([]int, ranks),
		startDepth:   make([]int, ranks),
		postDepth:    make([]int, ranks),
		fenceOps:     map[[2]int32]int{},
		msgDelta:     map[chanKey]int{},
		irecvOpen:    make([]int, ranks),
		reqKind:      map[reqID]trace.Kind{},
		syncs:        core.NewGlobalSyncs(ranks),
		lastFence:    map[[2]int32]trace.Event{},
		freed:        map[int32]bool{},
		report:       &core.Report{},
		vindex:       map[string]*core.Violation{},
		opts:         core.DefaultOptions(),
	}
	return c
}

// SetObs attaches an observability registry: slab sizes (each slab's own
// trace events, so they sum to the report's total), clean vs unclean
// boundary decisions, coalesced regions, and the peak number of buffered
// events all become measurable, and the per-slab analysis records its
// phase spans into the same registry. Call before the first Emit.
func (c *Checker) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opts.Obs = reg
	c.mSlabs = reg.Counter("mcchecker_stream_slabs_total")
	c.mSlabEvents = reg.Histogram("mcchecker_stream_slab_events")
	c.mBoundClean = reg.Counter("mcchecker_stream_boundaries_total", "result", "clean")
	c.mBoundUnclean = reg.Counter("mcchecker_stream_boundaries_total", "result", "unclean")
	c.mPeakBuffered = reg.Gauge("mcchecker_stream_peak_buffered_events")
}

// SetTolerant switches the checker into fault-tolerant mode: a slab that
// fails strict analysis (for example because a crashed rank left
// unmatched communication structure behind) is salvaged with
// core.AnalyzeDegraded instead of aborting the whole online run, and the
// final report's Degraded field carries the loss diagnostics. Call
// before the first Emit.
func (c *Checker) SetTolerant(v bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tolerant = v
}

// Emit implements trace.Sink. It is safe for concurrent use by the rank
// goroutines; slab analysis runs inline in the emitting goroutine that
// completes a boundary (the online analysis cost the paper's future-work
// section anticipates).
func (c *Checker) Emit(ev trace.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		c.misuse = ErrEmitAfterFinish
		c.lateEmits++
		return
	}
	if c.err != nil {
		return
	}
	if int(ev.Rank) >= c.ranks {
		c.err = fmt.Errorf("stream: event from rank %d in a world of %d", ev.Rank, c.ranks)
		return
	}
	c.track(&ev)
	r := ev.Rank
	c.pending[r] = append(c.pending[r], ev)
	c.buffered++
	if c.buffered > c.peakBuffered {
		c.peakBuffered = c.buffered
	}
	if c.syncs.Global(&ev) {
		c.globalPos[r] = append(c.globalPos[r], len(c.pending[r])-1)
		c.maybeAnalyze()
	}
}

// track updates registries and cleanliness counters.
func (c *Checker) track(ev *trace.Event) {
	r := ev.Rank
	c.syncs.Define(ev)
	switch ev.Kind {
	case trace.KindWinFence:
		key := [2]int32{r, ev.Win}
		if c.fenceOps[key] > 0 {
			c.fenceDirty--
		}
		c.fenceOps[key] = 0
	case trace.KindWinLock:
		c.lockDepth[r]++
	case trace.KindWinUnlock:
		c.lockDepth[r]--
	case trace.KindWinLockAll:
		c.lockAllDepth[r]++
	case trace.KindWinUnlockAll:
		c.lockAllDepth[r]--
	case trace.KindWinStart:
		c.startDepth[r]++
	case trace.KindWinComplete:
		c.startDepth[r]--
	case trace.KindWinPost:
		c.postDepth[r]++
	case trace.KindWinWait:
		c.postDepth[r]--
	case trace.KindSend, trace.KindIsend:
		if ev.Kind == trace.KindIsend {
			c.reqKind[reqID{r, ev.Req}] = trace.KindIsend
		}
		c.bumpMsg(chanKey{ev.Comm, r, ev.Peer, ev.Tag}, +1)
	case trace.KindRecv:
		c.bumpMsg(chanKey{ev.Comm, ev.Peer, r, ev.Tag}, -1)
	case trace.KindIrecv:
		c.reqKind[reqID{r, ev.Req}] = trace.KindIrecv
		c.irecvOpen[r]++
	case trace.KindWaitReq:
		if c.reqKind[reqID{r, ev.Req}] == trace.KindIrecv {
			c.irecvOpen[r]--
			c.bumpMsg(chanKey{ev.Comm, ev.Peer, r, ev.Tag}, -1)
		}
	case trace.KindPut, trace.KindGet, trace.KindAccumulate,
		trace.KindGetAccumulate, trace.KindFetchOp, trace.KindCompareSwap:
		// Count only fence-mode operations: ops under an open lock,
		// lock_all, or start epoch complete at that epoch's close.
		if c.lockDepth[ev.Rank] == 0 && c.lockAllDepth[ev.Rank] == 0 && c.startDepth[ev.Rank] == 0 {
			key := [2]int32{r, ev.Win}
			if c.fenceOps[key] == 0 {
				c.fenceDirty++
			}
			c.fenceOps[key]++
		}
	}
}

// Note: the send side of a message is logged with the destination rank
// relative to the communicator; translating to world ranks would require
// the registry, but for balance counting a consistent keying suffices as
// long as both sides agree. The send uses (comm, srcWorld, dstRel) and the
// receive (comm, srcRel, dstWorld); for the world communicator these
// coincide. For sub-communicators the two sides may use different keys,
// making the balance conservatively nonzero (unclean) — correctness is
// preserved, granularity suffers only for sub-communicator p2p traffic.
func (c *Checker) bumpMsg(key chanKey, delta int) {
	old := c.msgDelta[key]
	nv := old + delta
	c.msgDelta[key] = nv
	if old == 0 && nv != 0 {
		c.msgDirty++
	}
	if old != 0 && nv == 0 {
		c.msgDirty--
	}
}

// delimits reports whether ev delimits a concurrent region, as the DAG
// decides it: a barrier-like collective instance spanning all ranks. A
// communicator created over all ranks delimits too, though no slab ends
// at one.
func (c *Checker) delimits(ev *trace.Event) bool {
	if ev.Kind == trace.KindCommCreate {
		return len(ev.Members()) == c.ranks
	}
	return c.syncs.Global(ev)
}

// clean reports whether the current boundary carries no cross-slab state.
func (c *Checker) clean() bool {
	for r := 0; r < c.ranks; r++ {
		if c.lockDepth[r] != 0 || c.lockAllDepth[r] != 0 ||
			c.startDepth[r] != 0 || c.postDepth[r] != 0 || c.irecvOpen[r] != 0 {
			return false
		}
	}
	return c.fenceDirty == 0 && c.msgDirty == 0
}

// maybeAnalyze checks whether every rank has executed the next global
// sync; if so and the boundary is clean, the slab is analyzed and dropped.
func (c *Checker) maybeAnalyze() {
	for {
		ready := true
		for r := 0; r < c.ranks; r++ {
			if len(c.globalPos[r]) == 0 {
				ready = false
				break
			}
		}
		if !ready {
			return
		}
		// All ranks have reached a boundary. The boundary is clean only if
		// the *trailing* state is clean — but ranks may have run ahead past
		// the boundary, so cleanliness must be evaluated against the state
		// at the boundary. Running ahead is possible only for events after
		// the global sync, which by definition happened after every rank
		// entered it; tracking state is cumulative, so we conservatively
		// require current cleanliness. If unclean, coalesce: drop this
		// boundary and retry at the next one.
		if !c.clean() {
			c.mBoundUnclean.Inc()
			for r := 0; r < c.ranks; r++ {
				c.globalPos[r] = c.globalPos[r][1:]
			}
			continue
		}
		c.mBoundClean.Inc()
		if err := c.analyzeSlab(); err != nil {
			c.err = err
			return
		}
	}
}

// analyzeSlab analyzes the events up to and including each rank's next
// boundary, merges the violations, and discards the events.
func (c *Checker) analyzeSlab() error {
	sl := c.cutSlab(func(r int) int { return c.globalPos[r][0] + 1 }, false)
	for r := range c.globalPos {
		// Rebase the later boundaries onto the trimmed queue.
		cut := c.globalPos[r][0] + 1
		rebased := c.globalPos[r][1:]
		c.globalPos[r] = make([]int, len(rebased))
		for i, p := range rebased {
			c.globalPos[r][i] = p - cut
		}
	}
	c.recountBuffered()
	c.mSlabs.Inc()
	c.mSlabEvents.Observe(int64(sl.set.TotalEvents() - sl.injected))
	c.mPeakBuffered.SetMax(int64(c.peakBuffered))

	rep, err := c.analyzeSet(sl.set, fmt.Sprintf("slab %d", c.slabsAnalyzed))
	if err != nil {
		return fmt.Errorf("stream: slab %d: %w", c.slabsAnalyzed, err)
	}
	c.merge(rep, sl)
	return nil
}

// slab is one cut of the pending events: a self-contained trace set, and
// what merge needs to report it in the trace's terms.
type slab struct {
	set *trace.Set
	// seqs[r][i] is the trace position of slab event (r, i).
	seqs [][]int64
	// injected counts the re-injected events over all ranks, and fences
	// the carried fences among them, each opening an epoch.
	injected, fences int
	// delims counts the region delimiters among rank 0's re-injected
	// events: slab region delims is the first with the slab's own events,
	// and it is trace region base, opened by the event opener[r] on rank
	// r (nil in the first slab, whose first region has no opener).
	delims, base int
	opener       []trace.Event
	// final marks the last slab. Every other one ends at a boundary, so
	// its last region is empty: the next slab's first.
	final bool
}

// cutSlab removes the first n(r) pending events of each rank r and
// returns them as a self-contained slab. After the first slab, each
// rank's trace starts with the definitions of the earlier slabs and the
// rank's last fence on each live window, which re-opens that window's
// fence epoch. The boundary event itself is consumed: its sync effect
// for the next slab is re-created by those, and ordering across the
// boundary is implied by slab sequencing. What the cut events define,
// fence or free is then recorded for the slabs after this one.
func (c *Checker) cutSlab(n func(r int) int, final bool) *slab {
	sl := &slab{
		set: trace.NewSet(c.ranks), seqs: make([][]int64, c.ranks),
		base: c.regions, opener: c.boundary, final: final,
	}
	cuts := make([][]trace.Event, c.ranks)
	fences := c.liveFences()
	for r, tr := range sl.set.Traces {
		var evs []trace.Event
		if c.slabsAnalyzed > 0 {
			for _, d := range c.defs[r] {
				if d.Kind != trace.KindWinCreate || !c.freed[d.Win] {
					evs = append(evs, d)
				}
			}
			evs = append(evs, fences[r]...)
			sl.fences += len(fences[r])
		}
		sl.injected += len(evs)
		if r == 0 {
			for i := range evs {
				if c.delimits(&evs[i]) {
					sl.delims++
				}
			}
		}
		cut := n(r)
		cuts[r] = c.pending[r][:cut]
		evs = append(evs, cuts[r]...)
		sl.seqs[r] = make([]int64, len(evs))
		for i := range evs {
			sl.seqs[r][i] = evs[i].Seq // every event still carries its trace position
			evs[i].Rank, evs[i].Seq = int32(r), int64(i)
		}
		tr.Events = evs
		c.pending[r] = append([]trace.Event(nil), c.pending[r][cut:]...)
	}
	c.boundary = make([]trace.Event, c.ranks)
	for r, evs := range cuts {
		for i := range evs {
			switch ev := &evs[i]; ev.Kind {
			case trace.KindCommCreate, trace.KindTypeCreate, trace.KindWinCreate:
				c.defs[r] = append(c.defs[r], *ev)
			case trace.KindWinFence:
				c.lastFence[[2]int32{int32(r), ev.Win}] = *ev
			case trace.KindWinFree:
				c.freed[ev.Win] = true
			}
			if r == 0 && c.delimits(&evs[i]) {
				c.regions++
			}
		}
		if len(evs) > 0 {
			c.boundary[r] = evs[len(evs)-1]
		}
	}
	c.slabsAnalyzed++
	return sl
}

// analyzeSet runs one slab's trace set through the pipeline. In tolerant
// mode an analysis failure degrades — the longest clean prefix of the
// slab is analyzed and the loss recorded in c.notes — instead of
// erroring.
func (c *Checker) analyzeSet(set *trace.Set, label string) (*core.Report, error) {
	rep, err := core.AnalyzeSlab(set, c.opts, c.tolerant)
	if err != nil {
		return nil, err
	}
	for _, n := range rep.Degraded {
		c.notes = append(c.notes, label+": "+n)
	}
	return rep, nil
}

// recountBuffered refreshes the buffered-event tally after a slab trimmed
// the pending queues.
func (c *Checker) recountBuffered() {
	n := 0
	for r := 0; r < c.ranks; r++ {
		n += len(c.pending[r])
	}
	c.buffered = n
}

// liveFences returns, per rank, the rank's last fence on each window
// that is not freed, ordered by window. Only the members of a window's
// communicator fence it, so only they carry its fence into a slab.
func (c *Checker) liveFences() [][]trace.Event {
	out := make([][]trace.Event, c.ranks)
	for key, ev := range c.lastFence {
		if !c.freed[key[1]] {
			out[key[0]] = append(out[key[0]], ev)
		}
	}
	for _, evs := range out {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Win < evs[j].Win })
	}
	return out
}

// merge folds a slab report into the cumulative one, deduplicating across
// slabs and firing the callback for new violations. The totals gain what
// the slab's own events contribute: its events, the epochs they open, and
// its regions from the first with its own events on, less the empty last
// one that the next slab counts. A violation kept names its operands and
// witness steps by their place in the trace, and its region by the
// trace's index.
func (c *Checker) merge(rep *core.Report, sl *slab) {
	regions := rep.Regions - sl.delims
	if !sl.final {
		regions--
	}
	c.report.EventsAnalyzed += max(rep.EventsAnalyzed-sl.injected, 0)
	c.report.Regions += max(regions, 0)
	c.report.EpochsChecked += max(rep.EpochsChecked-sl.fences, 0)
	for _, v := range rep.Violations {
		key := v.Key()
		if prev, ok := c.vindex[key]; ok {
			prev.Count += v.Count
			continue
		}
		v.A.Seq = sl.seqs[v.A.Rank][v.A.Seq]
		v.B.Seq = sl.seqs[v.B.Rank][v.B.Seq]
		for i := range v.Witness {
			ev := &v.Witness[i].Ev
			ev.Seq = sl.seqs[ev.Rank][ev.Seq]
		}
		if v.Class == core.AcrossProcesses {
			sl.renumberRegion(v)
		}
		c.vindex[key] = v
		c.report.Violations = append(c.report.Violations, v)
		if c.onViolation != nil {
			c.onViolation(v)
		}
	}
}

// renumberRegion gives a cross-process violation the trace's index of its
// region, in Region and in the witness steps that open and close it. In
// the slab's first region with its own events, the step that opens it
// names the re-injected event the region opens at in the slab, or is
// missing if none does; either way it becomes the delimiter that opened
// the region in the trace.
func (sl *slab) renumberRegion(v *core.Violation) {
	in := v.Region
	v.Region = sl.base + max(in-sl.delims, 0)
	from := "region " + strconv.Itoa(in) + " "
	to := "region " + strconv.Itoa(v.Region) + " "
	opens := -1
	for i := range v.Witness {
		st := &v.Witness[i]
		if rest, ok := strings.CutPrefix(st.Role, from); ok && st.Side == 0 {
			st.Role = to + rest
			if strings.HasPrefix(rest, "opens") {
				opens = i
			}
		}
	}
	if in != sl.delims || sl.opener == nil {
		return
	}
	if opens < 0 {
		v.Witness = append([]core.WitnessStep{{
			Side: 0, Role: to + "opens — ranks unordered past here",
		}}, v.Witness...)
		opens = 0
	}
	v.Witness[opens].Ev = sl.opener[v.A.Rank]
}

// Finish analyzes the remaining tail and returns the cumulative report.
// It is idempotent: repeat calls return the first call's report and error
// unchanged, so racing shutdown paths (drain, watchdog, signal handler)
// can all safely finalize the same checker.
func (c *Checker) Finish() (*core.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return c.finalRep, c.finalErr
	}
	rep, err := c.finishLocked()
	c.finished = true
	c.finalRep, c.finalErr = rep, err
	return rep, err
}

// Err reports sticky failure and misuse state: the first slab-analysis
// error, or ErrEmitAfterFinish when events arrived after finalization.
// A nil result means every event was accepted and analyzed (or is still
// pending analysis).
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.misuse != nil {
		return fmt.Errorf("%w (%d dropped)", c.misuse, c.lateEmits)
	}
	return nil
}

// finishLocked is the single-shot body of Finish, running under c.mu.
func (c *Checker) finishLocked() (*core.Report, error) {
	if c.err != nil {
		return nil, c.err
	}
	// Analyze whatever remains as one final slab (boundary = end of trace).
	remaining := 0
	for r := 0; r < c.ranks; r++ {
		remaining += len(c.pending[r])
	}
	if remaining > 0 {
		sl := c.cutSlab(func(r int) int { return len(c.pending[r]) }, true)
		for r := range c.globalPos {
			c.globalPos[r] = nil
		}
		c.buffered = 0
		c.mSlabs.Inc()
		c.mSlabEvents.Observe(int64(sl.set.TotalEvents() - sl.injected))
		rep, err := c.analyzeSet(sl.set, "final slab")
		if err != nil {
			return nil, fmt.Errorf("stream: final slab: %w", err)
		}
		c.merge(rep, sl)
	} else if c.opts.CrossProcess {
		c.report.Regions++ // the trace's last region, empty after the last boundary
	}
	c.mPeakBuffered.SetMax(int64(c.peakBuffered))
	c.report.Sort()
	c.report.Degraded = append(c.report.Degraded, c.notes...)
	c.report.RecordTotals(c.opts.Obs)
	return c.report, nil
}

// Slabs returns the number of slabs analyzed so far (diagnostic).
func (c *Checker) Slabs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slabsAnalyzed
}
