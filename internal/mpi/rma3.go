package mpi

import (
	"bytes"

	"repro/internal/memory"
	"repro/internal/trace"
)

// MPI-3 one-sided extensions (paper §V): window allocation, lock_all
// passive epochs, flush synchronization, and the fetching accumulate
// family. Like MPI-2 operations, the MPI-3 calls are nonblocking and
// complete at a synchronization call — here additionally at Flush.

// WinAllocate creates a window backed by a buffer the library allocates
// (MPI_Win_allocate). It is collective; every rank receives its own local
// buffer of the given size.
func (p *Proc) WinAllocate(size uint64, dispUnit uint32, c *Comm, name string) (*Win, *memory.Buffer) {
	buf := p.Alloc(size, name)
	w := p.WithCallDepth(1).WinCreate(buf, dispUnit, c)
	w.p = p // later window calls must log their own call sites
	return w, buf
}

// allRanksGroup returns the comm-relative ranks [0, size) as lock targets.
func (w *Win) allTargets() []int {
	out := make([]int, w.s.comm.Size())
	for i := range out {
		out[i] = i
	}
	return out
}

// LockAll opens a shared passive-target epoch to every rank of the window
// (MPI_Win_lock_all). MPI-3 defines lock_all as shared only.
func (w *Win) LockAll() {
	p := w.p
	w.s.comm.mustMember(p, "Win_lock_all")
	if w.lockAll {
		p.errorf("Win_lock_all", "lock_all epoch already open")
	}
	p.emit(trace.Event{Kind: trace.KindWinLockAll, Win: w.s.id}, 1)
	// Acquire in rank order to avoid lock-order inversions against
	// exclusive single locks.
	for _, t := range w.allTargets() {
		w.s.locks[t].acquire(p, "Win_lock_all", trace.LockShared)
	}
	w.lockAll = true
	p.world.metrics.epochOpen(epochLockAll)
}

// UnlockAll closes the lock_all epoch (MPI_Win_unlock_all), completing all
// pending operations.
func (w *Win) UnlockAll() {
	p := w.p
	if !w.lockAll {
		p.errorf("Win_unlock_all", "no lock_all epoch open")
	}
	var ops []*rmaOp
	for t, pend := range w.pendingAll {
		ops = append(ops, pend...)
		delete(w.pendingAll, t)
	}
	w.s.applyAll(ops)
	for _, t := range w.allTargets() {
		w.s.locks[t].release(p.rank)
	}
	w.lockAll = false
	p.world.metrics.epochClose(epochLockAll)
	p.emit(trace.Event{Kind: trace.KindWinUnlockAll, Win: w.s.id}, 1)
}

// Flush completes all pending operations to target, at both origin and
// target, without closing the epoch (MPI_Win_flush). The epoch may be a
// single lock or a lock_all.
func (w *Win) Flush(target int) {
	w.flush("Win_flush", target, trace.KindWinFlush)
}

// FlushAll completes all pending operations to every target
// (MPI_Win_flush_all).
func (w *Win) FlushAll() {
	w.flush("Win_flush_all", -1, trace.KindWinFlush)
}

// FlushLocal completes pending operations to target locally: the origin
// buffers may be reused, but completion at the target is only guaranteed
// by a later Flush/Unlock (MPI_Win_flush_local). The simulator applies the
// transfer (a legal, strongest implementation); the checker still treats
// target-side completion as pending.
func (w *Win) FlushLocal(target int) {
	w.flush("Win_flush_local", target, trace.KindWinFlushLocal)
}

// FlushLocalAll is FlushLocal to every target (MPI_Win_flush_local_all).
func (w *Win) FlushLocalAll() {
	w.flush("Win_flush_local_all", -1, trace.KindWinFlushLocal)
}

func (w *Win) flush(call string, target int, kind trace.Kind) {
	p := w.p
	if target >= w.s.comm.Size() {
		p.errorf(call, "target rank %d out of range", target)
	}
	inEpoch := func(t int) bool {
		return w.lockAll || w.lockHeld[t] != trace.LockNone
	}
	var ops []*rmaOp
	if target < 0 {
		for t := 0; t < w.s.comm.Size(); t++ {
			ops = append(ops, w.takePending(t)...)
		}
	} else {
		if !inEpoch(target) {
			p.errorf(call, "no passive-target epoch open to target %d", target)
		}
		ops = w.takePending(target)
	}
	w.s.applyAll(ops)
	p.emit(trace.Event{Kind: kind, Win: w.s.id, Target: int32(target)}, 2)
}

// takePending removes and returns the queued ops to target from both the
// single-lock and lock_all queues.
func (w *Win) takePending(target int) []*rmaOp {
	ops := w.pendingLock[target]
	delete(w.pendingLock, target)
	if w.pendingAll != nil {
		ops = append(ops, w.pendingAll[target]...)
		delete(w.pendingAll, target)
	}
	return ops
}

// GetAccumulate atomically combines originCount elements into the target
// window and returns the target's prior contents in the result buffer
// (MPI_Get_accumulate). With op == OpNone... use OpReplace for a swap; a
// pure atomic read is OpMin with identity — MPI's MPI_NO_OP is not
// modelled separately.
func (w *Win) GetAccumulate(origin *memory.Buffer, originOff uint64, originCount int, originType *Datatype,
	result *memory.Buffer, resultOff uint64, resultCount int, resultType *Datatype,
	target int, targetDisp uint64, targetCount int, targetType *Datatype, op trace.AccOp) {
	w.validateTransfer("Get_accumulate", target, originType, originCount, targetType, targetCount)
	if resultType.dm.TileBytes(resultCount) != targetType.dm.TileBytes(targetCount) {
		w.p.errorf("Get_accumulate", "result describes %d bytes but target %d bytes",
			resultType.dm.TileBytes(resultCount), targetType.dm.TileBytes(targetCount))
	}
	w.checkTargetRange("Get_accumulate", target, targetDisp, targetType, targetCount)
	w.checkAccumulate("Get_accumulate", op, originType, targetType, resultType)
	w.p.emit(trace.Event{
		Kind: trace.KindGetAccumulate, Win: w.s.id, Target: int32(target), AccOp: op,
		OriginAddr: origin.Addr(originOff), OriginType: originType.id, OriginCount: int32(originCount),
		TargetDisp: targetDisp, TargetType: targetType.id, TargetCount: int32(targetCount),
		ResultAddr: result.Addr(resultOff), ResultType: resultType.id, ResultCount: int32(resultCount),
	}, 1)
	w.queue("Get_accumulate", &rmaOp{
		kind:      trace.KindGetAccumulate,
		originBuf: origin, originOff: originOff, originType: originType, originCount: originCount,
		target: target, targetDisp: targetDisp, targetType: targetType, targetCount: targetCount,
		resultBuf: result, resultOff: resultOff, resultType: resultType, resultCount: resultCount,
		op: op,
	})
}

// FetchAndOp is the single-element Get_accumulate (MPI_Fetch_and_op).
// dtype must be a predefined type.
func (w *Win) FetchAndOp(origin *memory.Buffer, originOff uint64,
	result *memory.Buffer, resultOff uint64,
	target int, targetDisp uint64, dtype *Datatype, op trace.AccOp) {
	w.validateTransfer("Fetch_and_op", target, dtype, 1, dtype, 1)
	w.checkTargetRange("Fetch_and_op", target, targetDisp, dtype, 1)
	w.checkPredefined("Fetch_and_op", dtype)
	w.checkAccumulate("Fetch_and_op", op, dtype, dtype)
	w.p.emit(trace.Event{
		Kind: trace.KindFetchOp, Win: w.s.id, Target: int32(target), AccOp: op,
		OriginAddr: origin.Addr(originOff), OriginType: dtype.id, OriginCount: 1,
		TargetDisp: targetDisp, TargetType: dtype.id, TargetCount: 1,
		ResultAddr: result.Addr(resultOff), ResultType: dtype.id, ResultCount: 1,
	}, 1)
	w.queue("Fetch_and_op", &rmaOp{
		kind:      trace.KindFetchOp,
		originBuf: origin, originOff: originOff, originType: dtype, originCount: 1,
		target: target, targetDisp: targetDisp, targetType: dtype, targetCount: 1,
		resultBuf: result, resultOff: resultOff, resultType: dtype, resultCount: 1,
		op: op,
	})
}

// CompareAndSwap atomically replaces the target element with the origin
// value when it equals the compare value, returning the prior value in
// result (MPI_Compare_and_swap). dtype must be a predefined type.
func (w *Win) CompareAndSwap(origin *memory.Buffer, originOff uint64,
	compare *memory.Buffer, compareOff uint64,
	result *memory.Buffer, resultOff uint64,
	target int, targetDisp uint64, dtype *Datatype) {
	w.validateTransfer("Compare_and_swap", target, dtype, 1, dtype, 1)
	w.checkTargetRange("Compare_and_swap", target, targetDisp, dtype, 1)
	w.checkPredefined("Compare_and_swap", dtype)
	w.p.emit(trace.Event{
		Kind: trace.KindCompareSwap, Win: w.s.id, Target: int32(target),
		OriginAddr: origin.Addr(originOff), OriginType: dtype.id, OriginCount: 1,
		TargetDisp: targetDisp, TargetType: dtype.id, TargetCount: 1,
		ResultAddr: result.Addr(resultOff), ResultType: dtype.id, ResultCount: 1,
	}, 1)
	// The compare value is read at issue time (it is a separate input, not
	// part of the deferred transfer in this implementation).
	cmp := pack(compare, compareOff, dtype, 1)
	w.queue("Compare_and_swap", &rmaOp{
		kind:      trace.KindCompareSwap,
		originBuf: origin, originOff: originOff, originType: dtype, originCount: 1,
		target: target, targetDisp: targetDisp, targetType: dtype, targetCount: 1,
		resultBuf: result, resultOff: resultOff, resultType: dtype, resultCount: 1,
		compare: cmp,
	})
}

// applyFetching executes the deferred fetching atomics; called from
// winShared.apply with its scratch. The packed origin goes at the front of
// scratch and the target's prior bytes after it; both are written whole
// before they are read.
func (s *winShared) applyFetching(op *rmaOp, scratch []byte) {
	tl := s.locals[op.target]
	byteOff := s.targetByteOff(op.target, op.targetDisp)
	size := op.targetType.dm.TileBytes(op.targetCount)
	switch op.kind {
	case trace.KindGetAccumulate, trace.KindFetchOp:
		packed := packInto(scratch, op.originBuf, op.originOff, op.originType, op.originCount)
		old := scratch[len(packed):][:size]
		s.accumulate(op, packed, old)
		unpack(op.resultBuf, op.resultOff, op.resultType, op.resultCount, old)
	case trace.KindCompareSwap:
		newVal := packInto(scratch, op.originBuf, op.originOff, op.originType, 1)
		old := scratch[len(newVal):][:size]
		tl.buf.UpdateRaw(byteOff, size, func(data []byte) {
			copy(old, data)
			if bytes.Equal(data, op.compare) {
				copy(data, newVal)
			}
		})
		unpack(op.resultBuf, op.resultOff, op.resultType, 1, old)
	}
}
