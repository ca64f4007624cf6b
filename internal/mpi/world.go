package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Hook observes the simulated MPI runtime. It is how the profiler
// (internal/profiler) attaches: MPICall mirrors the PMPI interposition
// layer of the paper's Profiler, and BufferAllocated gives the profiler the
// chance to attach load/store observers to buffers that the ST-Analyzer
// report marks relevant.
type Hook interface {
	// MPICall is invoked once per MPI call from the calling rank's
	// goroutine, before the call takes effect. ev carries all arguments and
	// the source location; Rank is set, Seq is zero (the hook assigns
	// per-rank sequence numbers so that call events interleave correctly
	// with the load/store events it observes itself).
	MPICall(p *Proc, ev trace.Event)

	// BufferAllocated is invoked when a rank allocates a tracked buffer.
	BufferAllocated(p *Proc, b *memory.Buffer)
}

// Options configures a simulated run.
type Options struct {
	// Hook receives runtime events; nil runs without any observation
	// (the "native" configuration of the paper's overhead experiments).
	Hook Hook

	// Timeout breaks deadlocked runs; zero means DefaultTimeout, and a
	// negative value is an error.
	Timeout time.Duration

	// Obs, when non-nil, receives the simulator's runtime metrics
	// (messages, collectives, RMA operations deferred and applied, epochs
	// opened and closed per sync mode). Nil disables the accounting with
	// no per-call cost beyond one pointer check.
	Obs *obs.Registry

	// Faults, when non-nil, injects the plan's simulator-level faults:
	// rank crashes at a fixed MPI-call ordinal, seeded scheduler yields,
	// and legal cross-origin reordering of RMA completion batches. All
	// injection is deterministic in the plan's seed. A crash kills only
	// its rank: surviving ranks receive a RankFailure from blocking calls
	// that depend on the dead rank, and the run completes with the
	// survivors' traces (see internal/mpi/faults.go for the model).
	Faults *faults.Plan
}

// DefaultTimeout bounds a run when Options.Timeout is zero. Buggy MPI
// programs deadlock easily; the simulator turns a deadlock into an error
// rather than a hung test suite.
const DefaultTimeout = 2 * time.Minute

// World is one simulated MPI job.
type World struct {
	procs   []*Proc
	hook    Hook
	metrics *simMetrics // nil when Options.Obs is nil

	mu         sync.Mutex
	nextCommID int32
	nextWinID  int32

	// Abort machinery: when a rank dies (usage error, panic, or a body
	// returning an error), the job aborts like MPI_Abort — every blocking
	// wait in the runtime wakes up and unwinds, so Run returns promptly
	// instead of hitting the deadlock watchdog.
	aborted atomic.Bool
	abortMu sync.Mutex
	conds   []*sync.Cond

	// faults holds the injection plan and the failed-rank set; nil when
	// no plan is configured.
	faults *faultState
}

// abortPanic unwinds a rank blocked in the runtime when the job aborts.
type abortPanic struct{}

// addCond registers a condition variable to be broadcast on abort.
func (w *World) addCond(c *sync.Cond) {
	w.abortMu.Lock()
	w.conds = append(w.conds, c)
	w.abortMu.Unlock()
	if w.aborted.Load() {
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	}
}

// abort marks the job dead and wakes every registered waiter. Broadcasting
// under each cond's own lock closes the check-then-wait window in waiters.
func (w *World) abort() {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	w.abortMu.Lock()
	conds := append([]*sync.Cond(nil), w.conds...)
	w.abortMu.Unlock()
	for _, c := range conds {
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	}
}

// Run executes body on n ranks and waits for all of them. It returns the
// joined errors of all ranks (body results, usage errors, and panics) in
// rank order, or a timeout error if the job deadlocks.
func Run(n int, opts Options, body func(p *Proc) error) error {
	if n <= 0 {
		return fmt.Errorf("mpi: world size %d must be positive", n)
	}
	if opts.Timeout < 0 {
		return fmt.Errorf("mpi: timeout %v must not be negative", opts.Timeout)
	}
	if err := opts.Faults.CheckRanks(n); err != nil {
		return err
	}
	w := &World{hook: opts.Hook, metrics: newSimMetrics(opts.Obs), nextCommID: 1} // comm id 0 is the world
	w.faults = newFaultState(opts.Faults)
	w.procs = make([]*Proc, n)
	worldGroup := identityGroup(n)
	worldComm := newComm(w, 0, worldGroup)
	for i := 0; i < n; i++ {
		w.procs[i] = &Proc{
			world:  w,
			rank:   i,
			space:  memory.NewAddressSpace(),
			mail:   newMailbox(w),
			comm:   worldComm,
			status: &procStatus{},
		}
		w.procs[i].nextTypeID = trace.TypeUserBase
		w.procs[i].setupFaults()
	}

	timeout := opts.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}

	type rankErr struct {
		rank int
		err  error
	}
	errc := make(chan rankErr, n)
	for i := 0; i < n; i++ {
		p := w.procs[i]
		go func() {
			defer func() {
				if r := recover(); r != nil {
					p.status.done.Store(true)
					switch v := r.(type) {
					case abortPanic:
						// Collateral unwind of a rank blocked in the runtime
						// when a peer aborted; the root cause is reported by
						// the aborting rank.
						errc <- rankErr{p.rank, nil}
					case crashPanic:
						// Injected crash fault: only this rank dies, and its
						// dependents learn of it through markFailed.
						w.markFailed(p.rank, p.rank)
						errc <- rankErr{p.rank, &CrashError{Rank: p.rank, Call: v.call}}
					case rankFailurePanic:
						// This rank's blocking call depended on a dead peer and
						// unwound; its own death cascades to its dependents.
						w.markFailed(p.rank, v.err.Failed)
						errc <- rankErr{p.rank, v.err}
					case *UsageError:
						w.abort()
						errc <- rankErr{p.rank, v}
					default:
						w.abort()
						buf := make([]byte, 8192)
						buf = buf[:runtime.Stack(buf, false)]
						errc <- rankErr{p.rank, fmt.Errorf("mpi: rank %d panicked: %v\n%s", p.rank, r, buf)}
					}
					return
				}
			}()
			err := body(p)
			p.status.done.Store(true)
			if err != nil {
				w.abort()
			}
			errc <- rankErr{p.rank, err}
		}()
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		select {
		case re := <-errc:
			errs[re.rank] = re.err
		case <-timer.C:
			return fmt.Errorf("mpi: job deadlocked: %d of %d ranks did not finish within %v%s%s",
				n-i, n, timeout, w.stuckReport(), joinedSuffix(errs))
		}
	}
	return errors.Join(errs...)
}

// abortedNow reports whether the job has aborted. Every blocking wait loop
// in the runtime checks it at the top of each iteration and unwinds with
// abortPanic (releasing its lock first).
func (w *World) abortedNow() bool { return w.aborted.Load() }

func joinedSuffix(errs []error) string {
	err := errors.Join(errs...)
	if err == nil {
		return ""
	}
	return fmt.Sprintf(" (finished ranks reported: %v)", err)
}

// UsageError reports misuse of the MPI interface by the application: the
// simulated analogue of an MPI error or hang.
type UsageError struct {
	Rank int
	Call string
	Msg  string
}

func (e *UsageError) Error() string {
	return fmt.Sprintf("mpi: rank %d: %s: %s", e.Rank, e.Call, e.Msg)
}

// Proc is one simulated MPI rank. All methods must be called from the
// rank's own goroutine (the body function passed to Run).
type Proc struct {
	world *World
	rank  int
	space *memory.AddressSpace
	mail  *mailbox
	comm  *Comm // MPI_COMM_WORLD

	nextTypeID int32
	nextReqID  int32
	callDepth  int32 // extra caller frames for location capture (see WithCallDepth)

	// faults is the rank's fault-injection state (nil when no plan is
	// armed); it lives behind a pointer so that WithCallDepth's shallow
	// Proc copies share the MPI-call counter. Touched only by the rank's
	// own goroutine.
	faults *procFaults

	// status carries the watchdog diagnostics; it lives behind a pointer so
	// that WithCallDepth's shallow Proc copies share it.
	status *procStatus
}

// procStatus records where a rank currently is, for the deadlock
// watchdog's diagnostics.
type procStatus struct {
	// blockedOn names the call the rank is blocked in; nil when running.
	blockedOn atomic.Pointer[string]
	done      atomic.Bool
}

// enterBlocked records that the rank is about to block in the named call
// and returns a func restoring the running state.
func (p *Proc) enterBlocked(call string) func() {
	p.status.blockedOn.Store(&call)
	return func() { p.status.blockedOn.Store(nil) }
}

// stuckReport lists unfinished ranks and where they are blocked.
func (w *World) stuckReport() string {
	var sb []byte
	for _, p := range w.procs {
		if p.status.done.Load() {
			continue
		}
		where := "running"
		if s := p.status.blockedOn.Load(); s != nil {
			where = "blocked in " + *s
		}
		sb = fmt.Appendf(sb, "\n  rank %d: %s", p.rank, where)
	}
	return string(sb)
}

// Rank returns the world rank of the process.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return len(p.world.procs) }

// CommWorld returns the predefined world communicator.
func (p *Proc) CommWorld() *Comm { return p.comm }

// Space returns the rank's simulated address space.
func (p *Proc) Space() *memory.AddressSpace { return p.space }

// Alloc allocates a tracked buffer in the rank's address space and reports
// it to the hook so the profiler can decide whether to observe it.
func (p *Proc) Alloc(size uint64, name string) *memory.Buffer {
	b := p.space.Alloc(size, name)
	if p.world.hook != nil {
		p.world.hook.BufferAllocated(p, b)
	}
	return b
}

// AllocFloat64 allocates a tracked buffer holding n float64 values.
func (p *Proc) AllocFloat64(n int, name string) *memory.Buffer {
	return p.Alloc(uint64(n)*8, name)
}

// AllocInt32 allocates a tracked buffer holding n int32 values.
func (p *Proc) AllocInt32(n int, name string) *memory.Buffer {
	return p.Alloc(uint64(n)*4, name)
}

// WithCallDepth adds extra stack frames to skip when capturing the source
// location of MPI calls, for application-side wrappers that forward to the
// MPI interface. It returns a shallow copy bound to the same rank.
func (p *Proc) WithCallDepth(extra int) *Proc {
	q := *p
	q.callDepth += int32(extra)
	return &q
}

func (p *Proc) errorf(call, format string, args ...any) {
	panic(&UsageError{Rank: p.rank, Call: call, Msg: fmt.Sprintf(format, args...)})
}

// emit fills in the caller location and rank and hands the event to the
// hook. skip is the number of frames between the application call site and
// emit's caller. Fault injection runs first, so a crashing call is
// neither counted nor traced.
func (p *Proc) emit(ev trace.Event, skip int) {
	if p.faults != nil {
		p.injectFaults()
	}
	p.world.metrics.record(ev.Kind, int32(p.rank))
	if p.world.hook == nil {
		return
	}
	ev.Rank = int32(p.rank)
	loc := memory.CallerLoc(skip + 1 + int(p.callDepth))
	ev.File, ev.Line, ev.Func = loc.File, int32(loc.Line), loc.Func
	p.world.hook.MPICall(p, ev)
}

// other returns the Proc for a world rank; used by p2p and RMA internals.
func (w *World) proc(rank int) *Proc { return w.procs[rank] }

// allocCommID hands out a fresh communicator id.
func (w *World) allocCommID() int32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	id := w.nextCommID
	w.nextCommID++
	return id
}

// allocWinID hands out a fresh window id.
func (w *World) allocWinID() int32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	id := w.nextWinID
	w.nextWinID++
	return id
}

// allocTypeID hands out a fresh per-rank user datatype id.
func (p *Proc) allocTypeID() int32 {
	return atomic.AddInt32(&p.nextTypeID, 1) - 1
}

// allocReqID hands out a fresh per-rank request id.
func (p *Proc) allocReqID() int32 {
	return atomic.AddInt32(&p.nextReqID, 1)
}
