package mpi

import (
	"repro/internal/trace"
)

// Fence assertion flags (logged but not semantically interpreted; the
// paper's analysis likewise records them only for fidelity).
const (
	AssertNone      = 0
	AssertNoStore   = 1
	AssertNoPut     = 2
	AssertNoPrecede = 4
	AssertNoSucceed = 8
)

// Fence closes the current active-target fence epoch and opens the next one
// (MPI_Win_fence). It is collective over the window; all pending fence-mode
// operations of every rank are applied before any rank returns, in
// deterministic (origin rank, issue order).
func (w *Win) Fence(assert int) {
	p := w.p
	rel := w.s.comm.mustMember(p, "Win_fence")
	p.emit(trace.Event{
		Kind: trace.KindWinFence, Win: w.s.id, Comm: w.s.comm.id, Assert: int32(assert),
	}, 1)
	if w.fenceCount > 0 {
		p.world.metrics.epochClose(epochFence)
	}
	p.world.metrics.epochOpen(epochFence)
	mine := w.pendingFence
	w.pendingFence = nil
	w.fenceCount++
	w.s.fences.rendezvous(p, w.s.comm.Size(), rel, "Win_fence", mine,
		func(slots map[int]any) any {
			var all []*rmaOp
			for _, v := range slots {
				all = append(all, v.([]*rmaOp)...)
			}
			w.s.applyAll(all)
			return nil
		})
}

// Lock opens a passive-target access epoch on target's window
// (MPI_Win_lock). lt is LockShared or LockExclusive; an exclusive lock
// blocks until all other holders release, a shared lock blocks only while
// an exclusive lock is held.
func (w *Win) Lock(lt trace.LockType, target int) {
	p := w.p
	w.s.comm.mustMember(p, "Win_lock")
	if target < 0 || target >= w.s.comm.Size() {
		p.errorf("Win_lock", "target rank %d out of range", target)
	}
	if lt != trace.LockShared && lt != trace.LockExclusive {
		p.errorf("Win_lock", "invalid lock type %d", lt)
	}
	if w.lockHeld[target] != trace.LockNone {
		p.errorf("Win_lock", "target %d already locked by this rank", target)
	}
	p.emit(trace.Event{
		Kind: trace.KindWinLock, Win: w.s.id, Target: int32(target), Lock: lt,
	}, 1)
	release := p.enterBlocked("Win_lock")
	w.s.locks[target].acquire(p, "Win_lock", lt)
	release()
	w.lockHeld[target] = lt
	p.world.metrics.epochOpen(epochLock)
}

// Unlock closes the passive-target epoch on target (MPI_Win_unlock),
// applying all operations issued to that target under the lock.
func (w *Win) Unlock(target int) {
	p := w.p
	w.s.comm.mustMember(p, "Win_unlock")
	if w.lockHeld[target] == trace.LockNone {
		p.errorf("Win_unlock", "target %d is not locked by this rank", target)
	}
	ops := w.pendingLock[target]
	delete(w.pendingLock, target)
	w.s.applyAll(ops)
	w.s.locks[target].release(p.rank)
	delete(w.lockHeld, target)
	p.world.metrics.epochClose(epochLock)
	p.emit(trace.Event{
		Kind: trace.KindWinUnlock, Win: w.s.id, Target: int32(target),
	}, 1)
}

// Post opens an exposure epoch for the origin processes in group
// (MPI_Win_post). group contains communicator-relative ranks of the
// window's communicator, translated internally to world ranks.
func (w *Win) Post(group *Group) {
	p := w.p
	rel := w.s.comm.mustMember(p, "Win_post")
	p.emit(trace.Event{Kind: trace.KindWinPost, Win: w.s.id, Def: &trace.Def{Members: toInt32s(group.Ranks())}}, 1)
	w.s.pscwMu.Lock()
	if _, busy := w.s.posts[rel]; busy {
		w.s.pscwMu.Unlock()
		p.errorf("Win_post", "exposure epoch already open")
	}
	w.s.posts[rel] = &postRecord{origins: group, remaining: group.Size(), done: make(map[int]bool)}
	w.s.pscwCond.Broadcast()
	w.s.pscwMu.Unlock()
	p.world.metrics.epochOpen(epochPSCWExposure)
}

// Start opens an access epoch to the target processes in group
// (MPI_Win_start). It blocks until every target has posted an exposure
// epoch that includes this rank (a legal, conservative implementation of
// the MPI semantics).
func (w *Win) Start(group *Group) {
	p := w.p
	w.s.comm.mustMember(p, "Win_start")
	if w.startGroup != nil {
		p.errorf("Win_start", "access epoch already open")
	}
	p.emit(trace.Event{Kind: trace.KindWinStart, Win: w.s.id, Def: &trace.Def{Members: toInt32s(group.Ranks())}}, 1)
	release := p.enterBlocked("Win_start")
	defer release()
	w.s.pscwMu.Lock()
	for _, tw := range group.Ranks() {
		trel := w.s.comm.group.Rank(tw)
		if trel < 0 {
			w.s.pscwMu.Unlock()
			p.errorf("Win_start", "target world rank %d not in window communicator", tw)
		}
		for {
			rec, ok := w.s.posts[trel]
			if ok && rec.origins.Contains(p.rank) {
				break
			}
			if p.world.abortedNow() {
				w.s.pscwMu.Unlock()
				panic(abortPanic{})
			}
			// After an injected crash: a dead target will never post.
			if p.world.anyFailed() && p.world.rankIsFailed(tw) {
				w.s.pscwMu.Unlock()
				p.failPeer("Win_start", tw)
			}
			w.s.pscwCond.Wait()
		}
	}
	w.s.pscwMu.Unlock()
	w.startGroup = group
	p.world.metrics.epochOpen(epochPSCWAccess)
}

// Complete closes the access epoch (MPI_Win_complete), applying all
// operations issued since Start and notifying the targets.
func (w *Win) Complete() {
	p := w.p
	if w.startGroup == nil {
		p.errorf("Win_complete", "no access epoch open")
	}
	ops := w.pendingStart
	w.pendingStart = nil
	w.s.applyAll(ops)
	group := w.startGroup
	w.startGroup = nil
	p.world.metrics.epochClose(epochPSCWAccess)
	p.emit(trace.Event{Kind: trace.KindWinComplete, Win: w.s.id}, 1)
	w.s.pscwMu.Lock()
	for _, tw := range group.Ranks() {
		trel := w.s.comm.group.Rank(tw)
		if rec, ok := w.s.posts[trel]; ok {
			rec.remaining--
			rec.done[p.rank] = true
		}
	}
	w.s.pscwCond.Broadcast()
	w.s.pscwMu.Unlock()
}

// WaitEpoch closes the exposure epoch (MPI_Win_wait), blocking until every
// origin in the posted group has called Complete.
func (w *Win) WaitEpoch() {
	p := w.p
	rel := w.s.comm.mustMember(p, "Win_wait")
	release := p.enterBlocked("Win_wait")
	defer release()
	w.s.pscwMu.Lock()
	rec, ok := w.s.posts[rel]
	if !ok {
		w.s.pscwMu.Unlock()
		p.errorf("Win_wait", "no exposure epoch open")
	}
	for rec.remaining > 0 {
		if p.world.abortedNow() {
			w.s.pscwMu.Unlock()
			panic(abortPanic{})
		}
		// After an injected crash: an origin that died before Win_complete
		// will never close its access epoch.
		if p.world.anyFailed() {
			for _, orig := range rec.origins.Ranks() {
				if !rec.done[orig] && p.world.rankIsFailed(orig) {
					w.s.pscwMu.Unlock()
					p.failPeer("Win_wait", orig)
				}
			}
		}
		w.s.pscwCond.Wait()
	}
	delete(w.s.posts, rel)
	w.s.pscwMu.Unlock()
	p.world.metrics.epochClose(epochPSCWExposure)
	p.emit(trace.Event{Kind: trace.KindWinWait, Win: w.s.id}, 1)
}
