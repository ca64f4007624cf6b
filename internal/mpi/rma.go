package mpi

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Win is a per-rank handle on an RMA window. The window itself (winShared)
// is a collective object; the handle additionally tracks the rank's open
// epochs and its pending (issued but not completed) one-sided operations —
// the deferred-completion queue that gives the simulator MPI's nonblocking
// RMA semantics.
type Win struct {
	p *Proc
	s *winShared

	fenceCount   int      // number of Win_fence calls so far
	pendingFence []*rmaOp // ops completing at the next fence
	lockHeld     map[int]trace.LockType
	pendingLock  map[int][]*rmaOp // ops completing at Win_unlock(target)
	startGroup   *Group           // open access epoch (Win_start)
	pendingStart []*rmaOp         // ops completing at Win_complete
	issueSeq     int              // per-handle issue counter for deterministic ordering

	// MPI-3 lock_all epoch state.
	lockAll    bool
	pendingAll map[int][]*rmaOp // ops completing at Win_unlock_all or Flush
}

type winShared struct {
	id     int32
	comm   *Comm
	locals []winLocal // indexed by comm-relative rank
	locks  []*lockState
	fences *collState // fence/free rendezvous, separate from comm collectives

	// batchSeq numbers the window's non-empty completion batches, the
	// ordinal the delay=R@K schedule clause addresses. For fence-closed
	// epochs the numbering is fully deterministic (fences are collective
	// and ordered); for concurrent passive-target closes it is
	// deterministic only up to lock-acquisition order.
	batchSeq atomic.Int32

	pscwMu   sync.Mutex
	pscwCond *sync.Cond
	posts    map[int]*postRecord // active exposure epoch per target rank
}

type winLocal struct {
	buf      *memory.Buffer
	dispUnit uint32
}

type postRecord struct {
	origins   *Group
	remaining int          // origins that have not yet called Win_complete
	done      map[int]bool // origin world ranks that have completed
}

// lockState implements the passive-target lock of one target rank.
// Holder world ranks are tracked so that a waiter can detect a holder
// that died of an injected crash without releasing.
type lockState struct {
	world   *World
	mu      sync.Mutex
	cond    *sync.Cond
	holders int
	excl    bool
	byRank  map[int]int // holding world rank → held count
}

func newLockState(w *World) *lockState {
	ls := &lockState{world: w, byRank: make(map[int]int)}
	ls.cond = sync.NewCond(&ls.mu)
	w.addCond(ls.cond)
	return ls
}

func (ls *lockState) acquire(p *Proc, call string, lt trace.LockType) {
	ls.mu.Lock()
	if lt == trace.LockExclusive {
		for ls.holders > 0 {
			ls.waitCheck(p, call)
			ls.cond.Wait()
		}
		ls.excl = true
	} else {
		for ls.excl {
			ls.waitCheck(p, call)
			ls.cond.Wait()
		}
	}
	ls.holders++
	ls.byRank[p.rank]++
	ls.mu.Unlock()
}

// waitCheck unwinds a blocked acquirer when the job aborted or a current
// holder died without releasing. Called with ls.mu held; unlocks it
// before panicking.
func (ls *lockState) waitCheck(p *Proc, call string) {
	if ls.world.abortedNow() {
		ls.mu.Unlock()
		panic(abortPanic{})
	}
	if ls.world.anyFailed() {
		ranks := make([]int, 0, len(ls.byRank))
		for r := range ls.byRank {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		if fr := ls.world.failedOf(ranks); fr >= 0 {
			ls.mu.Unlock()
			p.failPeer(call, fr)
		}
	}
}

func (ls *lockState) release(rank int) {
	ls.mu.Lock()
	ls.holders--
	if ls.holders == 0 {
		ls.excl = false
	}
	if ls.byRank[rank]--; ls.byRank[rank] <= 0 {
		delete(ls.byRank, rank)
	}
	ls.cond.Broadcast()
	ls.mu.Unlock()
}

// rmaOp is one queued one-sided operation.
type rmaOp struct {
	kind   trace.Kind // KindPut, KindGet, KindAccumulate
	origin int        // world rank of origin (for deterministic ordering)
	seq    int        // issue order within the origin handle

	originBuf   *memory.Buffer
	originOff   uint64
	originType  *Datatype
	originCount int

	target      int // comm-relative target rank
	targetDisp  uint64
	targetType  *Datatype
	targetCount int

	op trace.AccOp // accumulate family only

	// Fetching atomics (MPI-3): where to deliver the target's old value.
	resultBuf   *memory.Buffer
	resultOff   uint64
	resultType  *Datatype
	resultCount int
	compare     []byte // Compare_and_swap comparison value, read at issue
}

// WinCreate exposes buf for one-sided access by all members of c
// (MPI_Win_create). It is collective over c; every member contributes its
// local window buffer and displacement unit.
func (p *Proc) WinCreate(buf *memory.Buffer, dispUnit uint32, c *Comm) *Win {
	rel := c.mustMember(p, "Win_create")
	if dispUnit == 0 {
		p.errorf("Win_create", "displacement unit must be positive")
	}
	p.share("Win_create", buf)
	type deposit struct {
		buf  *memory.Buffer
		unit uint32
	}
	result := c.coll.rendezvous(p, c.Size(), rel, "Win_create", deposit{buf, dispUnit},
		func(slots map[int]any) any {
			s := &winShared{
				id:     p.world.allocWinID(),
				comm:   c,
				locals: make([]winLocal, c.Size()),
				locks:  make([]*lockState, c.Size()),
				fences: newCollState(p.world, c.group),
				posts:  make(map[int]*postRecord),
			}
			s.pscwCond = sync.NewCond(&s.pscwMu)
			p.world.addCond(s.pscwCond)
			for r := 0; r < c.Size(); r++ {
				d := slots[r].(deposit)
				s.locals[r] = winLocal{buf: d.buf, dispUnit: d.unit}
				s.locks[r] = newLockState(p.world)
			}
			return s
		})
	s := result.(*winShared)
	p.emit(trace.Event{
		Kind: trace.KindWinCreate, Win: s.id, Comm: c.id,
		Def: &trace.Def{WinBase: buf.Base(), WinSize: buf.Size(), DispUnit: dispUnit},
	}, 1)
	return &Win{
		p: p, s: s,
		lockHeld:    make(map[int]trace.LockType),
		pendingLock: make(map[int][]*rmaOp),
		pendingAll:  make(map[int][]*rmaOp),
	}
}

// share marks buf shared before call hands it to other ranks'
// goroutines (memory.Buffer.Share). A buffer another rank allocated is a
// usage error, so that no goroutine but the owner's writes the mark.
func (p *Proc) share(call string, buf *memory.Buffer) {
	if !buf.Share(p.space) {
		p.errorf(call, "buffer %q belongs to another rank", buf.Name())
	}
}

// ID returns the window id as it appears in the trace.
func (w *Win) ID() int32 { return w.s.id }

// Comm returns the communicator the window was created over.
func (w *Win) Comm() *Comm { return w.s.comm }

// LocalBuffer returns the rank's own window buffer.
func (w *Win) LocalBuffer() *memory.Buffer {
	return w.s.locals[w.s.comm.RankOf(w.p)].buf
}

// Free destroys the window collectively (MPI_Win_free). Pending operations
// must have been completed by a synchronization call.
func (w *Win) Free() {
	p := w.p
	rel := w.s.comm.mustMember(p, "Win_free")
	if len(w.pendingFence) > 0 || len(w.lockHeld) > 0 || w.startGroup != nil || w.lockAll {
		p.errorf("Win_free", "window freed with an open epoch or pending operations")
	}
	p.emit(trace.Event{Kind: trace.KindWinFree, Win: w.s.id, Comm: w.s.comm.id}, 1)
	w.s.fences.rendezvous(p, w.s.comm.Size(), rel, "Win_free", nil, func(map[int]any) any { return nil })
}

// queue classifies the operation into the rank's open epoch and defers it.
// The epoch may close from another rank's goroutine (a fence applies
// every rank's operations from the last rank to arrive), so the origin
// and result buffers are shared first.
func (w *Win) queue(call string, op *rmaOp) {
	p := w.p
	p.share(call, op.originBuf)
	if op.resultBuf != nil {
		p.share(call, op.resultBuf)
	}
	op.origin = p.rank
	op.seq = w.issueSeq
	w.issueSeq++
	p.world.metrics.rmaQueued(int32(p.rank))
	switch {
	case w.lockHeld[op.target] != trace.LockNone:
		w.pendingLock[op.target] = append(w.pendingLock[op.target], op)
	case w.lockAll:
		w.pendingAll[op.target] = append(w.pendingAll[op.target], op)
	case w.startGroup != nil && w.startGroup.Contains(w.s.comm.WorldRank(op.target)):
		w.pendingStart = append(w.pendingStart, op)
	case w.fenceCount > 0:
		w.pendingFence = append(w.pendingFence, op)
	default:
		p.errorf(call, "one-sided operation to target %d without an open epoch (no fence, lock, or start)", op.target)
	}
}

func (w *Win) validateTransfer(call string, target int, ot *Datatype, oc int, tt *Datatype, tc int) {
	p := w.p
	if target < 0 || target >= w.s.comm.Size() {
		p.errorf(call, "target rank %d out of range for window communicator of size %d", target, w.s.comm.Size())
	}
	if ot.dm.TileBytes(oc) != tt.dm.TileBytes(tc) {
		p.errorf(call, "origin transfers %d bytes but target describes %d bytes",
			ot.dm.TileBytes(oc), tt.dm.TileBytes(tc))
	}
}

// targetByteOff converts a displacement to a byte offset in the target's
// window buffer.
func (s *winShared) targetByteOff(target int, disp uint64) uint64 {
	return disp * uint64(s.locals[target].dispUnit)
}

// Put transfers originCount elements of originType from the origin buffer
// to targetCount elements of targetType at targetDisp in the target's
// window (MPI_Put). The transfer is nonblocking: it is applied when the
// enclosing epoch closes.
func (w *Win) Put(origin *memory.Buffer, originOff uint64, originCount int, originType *Datatype,
	target int, targetDisp uint64, targetCount int, targetType *Datatype) {
	w.validateTransfer("Put", target, originType, originCount, targetType, targetCount)
	w.checkTargetRange("Put", target, targetDisp, targetType, targetCount)
	w.p.emit(trace.Event{
		Kind: trace.KindPut, Win: w.s.id, Target: int32(target),
		OriginAddr: origin.Addr(originOff), OriginType: originType.id, OriginCount: int32(originCount),
		TargetDisp: targetDisp, TargetType: targetType.id, TargetCount: int32(targetCount),
	}, 1)
	w.queue("Put", &rmaOp{
		kind:      trace.KindPut,
		originBuf: origin, originOff: originOff, originType: originType, originCount: originCount,
		target: target, targetDisp: targetDisp, targetType: targetType, targetCount: targetCount,
	})
}

// Get transfers targetCount elements of targetType from the target's window
// into the origin buffer (MPI_Get). Like Put, it completes only when the
// epoch closes: loading the origin buffer before then reads stale data.
func (w *Win) Get(origin *memory.Buffer, originOff uint64, originCount int, originType *Datatype,
	target int, targetDisp uint64, targetCount int, targetType *Datatype) {
	w.validateTransfer("Get", target, originType, originCount, targetType, targetCount)
	w.checkTargetRange("Get", target, targetDisp, targetType, targetCount)
	w.p.emit(trace.Event{
		Kind: trace.KindGet, Win: w.s.id, Target: int32(target),
		OriginAddr: origin.Addr(originOff), OriginType: originType.id, OriginCount: int32(originCount),
		TargetDisp: targetDisp, TargetType: targetType.id, TargetCount: int32(targetCount),
	}, 1)
	w.queue("Get", &rmaOp{
		kind:      trace.KindGet,
		originBuf: origin, originOff: originOff, originType: originType, originCount: originCount,
		target: target, targetDisp: targetDisp, targetType: targetType, targetCount: targetCount,
	})
}

// Accumulate combines originCount elements of originType into the target
// window with the reduction op (MPI_Accumulate).
func (w *Win) Accumulate(origin *memory.Buffer, originOff uint64, originCount int, originType *Datatype,
	target int, targetDisp uint64, targetCount int, targetType *Datatype, op trace.AccOp) {
	w.validateTransfer("Accumulate", target, originType, originCount, targetType, targetCount)
	w.checkTargetRange("Accumulate", target, targetDisp, targetType, targetCount)
	w.checkAccumulate("Accumulate", op, originType, targetType)
	w.p.emit(trace.Event{
		Kind: trace.KindAccumulate, Win: w.s.id, Target: int32(target), AccOp: op,
		OriginAddr: origin.Addr(originOff), OriginType: originType.id, OriginCount: int32(originCount),
		TargetDisp: targetDisp, TargetType: targetType.id, TargetCount: int32(targetCount),
	}, 1)
	w.queue("Accumulate", &rmaOp{
		kind:      trace.KindAccumulate,
		originBuf: origin, originOff: originOff, originType: originType, originCount: originCount,
		target: target, targetDisp: targetDisp, targetType: targetType, targetCount: targetCount,
		op: op,
	})
}

// checkAccumulate rejects a reduction the simulator cannot apply lane by
// lane. types lists the origin and target types, then the result type of
// a fetching call. The op must be given; an arithmetic op also needs the
// origin and target to share a predefined base type, and every segment of
// every listed type to be a whole number of base elements: combine skips
// a partial lane, so such a segment would leave bytes uncombined.
func (w *Win) checkAccumulate(call string, op trace.AccOp, types ...*Datatype) {
	if op == trace.OpNone {
		w.p.errorf(call, "missing reduction operation")
	}
	if op == trace.OpReplace {
		return
	}
	elem := types[0].elem
	if elem == 0 || types[1].elem != elem {
		w.p.errorf(call, "origin and target datatypes must share a predefined base type")
	}
	es := elemSize(elem)
	for _, d := range types {
		for _, s := range d.dm.Segments {
			if s.Len%es != 0 {
				w.p.errorf(call, "datatype segment of %d bytes not a multiple of element size %d", s.Len, es)
			}
		}
	}
}

// checkPredefined rejects a derived datatype in the single-element
// atomics, which MPI restricts to predefined types: Compare_and_swap
// compares and swaps the contiguous bytes from the displacement, so a
// type with a gap would compare and overwrite the gap.
func (w *Win) checkPredefined(call string, d *Datatype) {
	if !trace.IsPredefinedType(d.id) {
		w.p.errorf(call, "datatype %d is not a predefined type", d.id)
	}
}

func (w *Win) checkTargetRange(call string, target int, disp uint64, tt *Datatype, tc int) {
	tl := w.s.locals[target]
	byteOff := w.s.targetByteOff(target, disp)
	need := byteOff
	if tc > 0 {
		need = byteOff + uint64(tc-1)*tt.dm.Extent + tt.dm.Span()
	}
	if need > tl.buf.Size() {
		w.p.errorf(call, "access through byte %d exceeds target %d window of %d bytes", need, target, tl.buf.Size())
	}
}

// scratchBytes is the scratch apply needs for op: its packed data, and
// for a fetching operation the target's prior bytes after it.
func (op *rmaOp) scratchBytes() uint64 {
	switch op.kind {
	case trace.KindPut, trace.KindAccumulate:
		return op.originType.dm.TileBytes(op.originCount)
	case trace.KindGet:
		return op.targetType.dm.TileBytes(op.targetCount)
	}
	return op.originType.dm.TileBytes(op.originCount) + op.targetType.dm.TileBytes(op.targetCount)
}

// apply performs the deferred data movement of one operation, packing
// through scratch, which holds at least op.scratchBytes() bytes. It runs
// in whichever goroutine closes the epoch; buffer raw methods provide the
// byte-level synchronization.
func (s *winShared) apply(op *rmaOp, scratch []byte) {
	if op.kind.IsAccFamily() && op.kind != trace.KindAccumulate {
		s.applyFetching(op, scratch)
		return
	}
	tl := s.locals[op.target]
	byteOff := s.targetByteOff(op.target, op.targetDisp)
	switch op.kind {
	case trace.KindPut:
		packed := packInto(scratch, op.originBuf, op.originOff, op.originType, op.originCount)
		unpack(tl.buf, byteOff, op.targetType, op.targetCount, packed)
	case trace.KindGet:
		packed := packInto(scratch, tl.buf, byteOff, op.targetType, op.targetCount)
		unpack(op.originBuf, op.originOff, op.originType, op.originCount, packed)
	case trace.KindAccumulate:
		s.accumulate(op, packInto(scratch, op.originBuf, op.originOff, op.originType, op.originCount), nil)
	}
}

// accumulate combines the packed origin bytes into the operation's target
// elements with its op, one read-modify-write under the buffer lock per
// contiguous run. A non-nil old first receives the target's prior bytes,
// in packed order. checkAccumulate has made every segment whole base
// elements, so a run's lanes line up with its segments' lanes.
func (s *winShared) accumulate(op *rmaOp, packed, old []byte) {
	buf := s.locals[op.target].buf
	base := s.targetByteOff(op.target, op.targetDisp)
	eachRun(op.targetType.dm, base, op.targetCount, func(off, pos, n uint64) {
		buf.UpdateRaw(off, n, func(data []byte) {
			if old != nil {
				copy(old[pos:pos+n], data)
			}
			combine(data, packed[pos:pos+n], op.targetType.elem, op.op)
		})
	})
}

// applyAll applies ops in deterministic (origin rank, issue seq) order.
// MPI leaves the order among conflicting unordered operations undefined;
// fixing it keeps runs reproducible without legitimizing programs that
// depend on it. An armed schedule plan (reorder, prio, chg, delay) picks
// a different but equally legal completion order for the batch, still
// deterministic in the plan's clauses and seed.
func (s *winShared) applyAll(ops []*rmaOp) {
	s.comm.world.metrics.rmaFlushed(len(ops))
	if len(ops) == 0 {
		return
	}
	batch := int(s.batchSeq.Add(1) - 1)
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].origin != ops[j].origin {
			return ops[i].origin < ops[j].origin
		}
		return ops[i].seq < ops[j].seq
	})
	s.comm.world.scheduleBatch(s.id, batch, ops)
	var size uint64
	for _, op := range ops {
		size = max(size, op.scratchBytes())
	}
	scratch := make([]byte, size)
	for _, op := range ops {
		s.apply(op, scratch)
	}
}
