package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/faults"
)

// Fault injection and the crash model.
//
// A rank that fails on its own (a usage error, a panic, or a body
// returning an error) aborts the whole job, like MPI_Abort: every blocked
// rank unwinds via the abort machinery and Run returns the root-cause
// error. An injected crash is ULFM-flavored instead: it kills only its own
// rank. A surviving rank learns of the death when — and only when — one of
// its blocking calls *depends* on the dead rank (a collective over a
// communicator containing it, a receive from it, a lock it holds, a PSCW
// partner). That call then raises a RankFailure instead of blocking
// forever, unwinding the survivor, whose own death cascades to its
// dependents in turn. Ranks with no dependency on any dead rank run to
// completion and emit complete traces.
//
// Dependency-awareness is what keeps crashed runs deterministic:
// everything a rank did before its crash (eager message deliveries, lock
// releases, PSCW posts/completes, collective deposits) happens-before its
// failure flag is published, and every blocking wait re-checks its
// dependencies on each wakeup, scanning deliverable work first. So
// whether a survivor completes a call or receives a RankFailure depends
// only on program order, not on scheduling. The one exception is a
// wildcard receive (AnySource): like ULFM's MPI_ERR_PROC_FAILED_PENDING,
// it fails as soon as any member of its communicator has died, even if a
// live sender would eventually have matched — which may race with that
// sender.

// CrashError reports a rank stopped by an injected crash fault.
type CrashError struct {
	Rank int
	Call int // 1-based ordinal of the MPI call at which the rank crashed
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("mpi: rank %d crashed by fault injection at MPI call %d", e.Rank, e.Call)
}

// RankFailure is the ULFM-flavored error delivered to a surviving rank
// whose blocking call depended on a failed peer.
type RankFailure struct {
	Rank   int    // the surviving rank receiving the error
	Call   string // the MPI call that observed the failure
	Failed int    // the crashed rank the failed peer's death cascades from
}

func (e *RankFailure) Error() string {
	return fmt.Sprintf("mpi: rank %d: %s failed: peer rank %d has died", e.Rank, e.Call, e.Failed)
}

// Degraded reports whether err — an error tree returned by Run — consists
// entirely of injected crashes and the rank failures they induced. Such a
// run completed with partial results: the surviving ranks' traces are
// intact and worth analyzing in salvage mode.
func Degraded(err error) bool {
	if err == nil {
		return false
	}
	sawCrash := false
	ok := true
	var walk func(error)
	walk = func(e error) {
		if joined, isJoin := e.(interface{ Unwrap() []error }); isJoin {
			for _, sub := range joined.Unwrap() {
				walk(sub)
			}
			return
		}
		var ce *CrashError
		var rf *RankFailure
		switch {
		case errors.As(e, &ce):
			sawCrash = true
		case errors.As(e, &rf):
		default:
			ok = false
		}
	}
	walk(err)
	return ok && sawCrash
}

// crashPanic unwinds a rank killed by an injected crash fault.
type crashPanic struct{ call int }

// rankFailurePanic unwinds a surviving rank whose blocking call depended
// on a failed peer; Run converts it into the carried RankFailure.
type rankFailurePanic struct{ err *RankFailure }

// faultState is the world's fault-injection state; nil when no plan is
// configured, making every check a cheap pointer test.
type faultState struct {
	plan *faults.Plan

	mu sync.Mutex
	// failed maps each world rank that has died to the crashed rank its
	// death cascades from (itself for a crash).
	failed map[int]int
	any    bool // fast path: len(failed) > 0, read under mu only on slow path
}

func newFaultState(plan *faults.Plan) *faultState {
	if plan == nil {
		return nil
	}
	return &faultState{plan: plan, failed: make(map[int]int)}
}

// markFailed records the death of rank, cascaded from the crashed rank
// root, and wakes every blocked waiter in the world so dependency checks
// re-run. Idempotent per rank.
func (w *World) markFailed(rank, root int) {
	fs := w.faults
	if fs == nil {
		return
	}
	fs.mu.Lock()
	_, already := fs.failed[rank]
	if !already {
		fs.failed[rank] = root
		fs.any = true
	}
	fs.mu.Unlock()
	if already {
		return
	}
	w.metrics.rankFailed()
	w.abortMu.Lock()
	conds := append([]*sync.Cond(nil), w.conds...)
	w.abortMu.Unlock()
	for _, c := range conds {
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	}
}

// anyFailed is the fast path for the blocking-wait loops: false unless
// a fault plan is configured and at least one rank has died.
func (w *World) anyFailed() bool {
	fs := w.faults
	if fs == nil {
		return false
	}
	fs.mu.Lock()
	any := fs.any
	fs.mu.Unlock()
	return any
}

// failedOf returns a failed world rank among deps, or -1. Only meaningful
// after anyFailed returned true.
func (w *World) failedOf(deps []int) int {
	fs := w.faults
	if fs == nil {
		return -1
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, r := range deps {
		if _, dead := fs.failed[r]; dead {
			return r
		}
	}
	return -1
}

// rankIsFailed reports whether one world rank has died.
func (w *World) rankIsFailed(rank int) bool {
	fs := w.faults
	if fs == nil {
		return false
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, dead := fs.failed[rank]
	return dead
}

// failPeer delivers the ULFM-flavored failure for call to the calling
// rank by unwinding its goroutine; Run reports the RankFailure. It names
// the crashed rank the dead peer's death cascades from, not the peer, so
// a survivor names the same rank whichever dead dependency it noticed
// first.
func (p *Proc) failPeer(call string, failedRank int) {
	fs := p.world.faults
	fs.mu.Lock()
	root := fs.failed[failedRank]
	fs.mu.Unlock()
	panic(rankFailurePanic{&RankFailure{Rank: p.rank, Call: call, Failed: root}})
}

// checkGroupFailure unwinds p when a member of the group (given as world
// ranks) has died; used inside blocking wait loops.
func (p *Proc) checkGroupFailure(call string, worldRanks []int) {
	if !p.world.anyFailed() {
		return
	}
	if fr := p.world.failedOf(worldRanks); fr >= 0 {
		p.failPeer(call, fr)
	}
}

// procFaults is one rank's fault-injection state. It lives behind a
// pointer so WithCallDepth's shallow Proc copies share the call counter.
type procFaults struct {
	calls   int         // MPI calls made so far by this rank
	crashAt int         // crash at this 1-based call ordinal; 0 = never
	rng     *faults.RNG // seeded yield stream; nil when yields are off
	yield   int         // percent chance of a yield per call
}

// injectFaults runs the per-call fault hooks: a planned crash at this
// rank's Nth MPI call, and a seeded random scheduler yield. Called at the
// top of emit, so a crashing call is neither counted nor traced.
func (p *Proc) injectFaults() {
	pf := p.faults
	pf.calls++
	if pf.crashAt > 0 && pf.calls >= pf.crashAt {
		p.world.metrics.faultInjected(faultCrash)
		panic(crashPanic{call: pf.calls})
	}
	if pf.rng != nil && pf.rng.Intn(100) < pf.yield {
		p.world.metrics.faultInjected(faultYield)
		runtime.Gosched()
	}
}

// setupFaults arms the per-rank fault state from the world's plan.
func (p *Proc) setupFaults() {
	fs := p.world.faults
	if fs == nil {
		return
	}
	pf := &procFaults{}
	if call, ok := fs.plan.CrashAt(p.rank); ok {
		pf.crashAt = call
	}
	if fs.plan.Yield > 0 {
		pf.rng = faults.Derive(fs.plan.Seed, 0x79696c64 /* "yild" */, uint64(p.rank))
		pf.yield = fs.plan.Yield
	}
	if pf.crashAt > 0 || pf.rng != nil {
		p.faults = pf
	}
}

// scheduleBatch picks the completion order of one deterministic-sorted
// RMA batch according to the plan's schedule clauses, preserving each
// origin's program order (which MPI guarantees for accumulates). batch is
// the window's 0-based completion-batch ordinal. The clauses compose in a
// fixed order — reorder, then delays — and every decision is derived from
// the plan's seed and the batch identity, never from shared mutable
// state, so a schedule replays exactly.
func (w *World) scheduleBatch(winID int32, batch int, ops []*rmaOp) {
	fs := w.faults
	if fs == nil || len(ops) < 2 {
		return
	}
	plan := fs.plan
	if plan.Reorder {
		w.reorderBatch(winID, ops)
	}
	for _, d := range plan.Delays {
		if d.Batch == batch && delayOrigin(ops, d.Origin) {
			w.metrics.faultInjected(faultDelay)
		}
	}
}

// reorderBatch permutes the batch across origins with a random (but
// seed-derived) priority per origin. The stream is keyed by the batch
// fingerprint so every batch gets an independent, stable permutation.
func (w *World) reorderBatch(winID int32, ops []*rmaOp) {
	origins := batchOrigins(ops)
	if len(origins) < 2 {
		return // single origin: program order is mandatory, nothing to permute
	}
	rng := faults.Derive(w.faults.plan.Seed, uint64(uint32(winID)),
		uint64(ops[0].origin)<<32|uint64(uint32(ops[0].seq)), uint64(len(ops)))
	prio := make(map[int]uint64, len(origins))
	for _, o := range origins { // origins appear in sorted order after applyAll's sort
		prio[o] = rng.Uint64()
	}
	sort.SliceStable(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if prio[a.origin] != prio[b.origin] {
			return prio[a.origin] < prio[b.origin]
		}
		return a.seq < b.seq
	})
	w.metrics.faultInjected(faultReorder)
}

// delayOrigin stably moves the given origin's operations to the back of
// the batch, reporting whether anything moved.
func delayOrigin(ops []*rmaOp, origin int) bool {
	kept := make([]*rmaOp, 0, len(ops))
	var delayed []*rmaOp
	for _, op := range ops {
		if op.origin == origin {
			delayed = append(delayed, op)
		} else {
			kept = append(kept, op)
		}
	}
	if len(delayed) == 0 || len(kept) == 0 {
		return false
	}
	copy(ops, append(kept, delayed...))
	return true
}

// batchOrigins returns the distinct origins of a batch in encounter order.
func batchOrigins(ops []*rmaOp) []int {
	origins := make([]int, 0, 4)
	seen := make(map[int]bool, 4)
	for _, op := range ops {
		if !seen[op.origin] {
			seen[op.origin] = true
			origins = append(origins, op.origin)
		}
	}
	return origins
}
