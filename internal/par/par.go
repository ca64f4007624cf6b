// Package par provides the deterministic fan-out helper shared by the
// trace decode pool (one rank file per unit of work) and the serve
// daemon's job pool. The contract that keeps a parallel decode
// byte-identical to a serial one lives here in one place: workers write
// only to per-index state, results are consumed in index order by the
// caller, and the error reported is always the one of the lowest failing
// index — the same error a serial left-to-right loop would have returned.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/obs/tracing"
)

// PanicError is a worker panic converted into an ordinary error: under a
// long-running daemon a panicking unit of work must degrade the one job
// that contained it, not kill the process. Index is the unit of work that
// panicked, Worker the pool goroutine executing it (0 in serial mode),
// Value the recovered panic value, and Stack the goroutine stack captured
// at recovery.
type PanicError struct {
	Index  int
	Worker int
	Value  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: panic in work %d (worker %d): %v", e.Index, e.Worker, e.Value)
}

// safeCall runs one unit of work, converting a panic into a *PanicError.
// Both the serial and parallel paths route through it, so the
// serial-identical error-semantics contract extends to panics: either
// mode reports the same *PanicError for the same panicking index.
func safeCall(i, worker int, sp *tracing.Span, fn func(i int, sp *tracing.Span) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Worker: worker, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i, sp)
}

// Ranks runs fn(0) … fn(n-1) on min(workers, n) goroutines and returns
// the error of the lowest index that failed, or nil. With workers <= 1
// the calls run inline in index order (no goroutines, fail-fast), which
// is the reference behaviour the parallel path must reproduce: fn must
// write only to state owned by its index.
func Ranks(n, workers int, fn func(i int) error) error {
	return RanksTraced(n, workers, nil, "", nil, func(i int, _ *tracing.Span) error {
		return fn(i)
	})
}

// RanksTraced is Ranks with each index's execution recorded as a span on
// tr: track is the pipeline stage, scope names the unit of work (e.g.
// "rank 3"), and the lane is the executing worker (wall mode) or the
// scope itself (deterministic mode) via tracing.Recorder.Lane. fn
// receives its span for annotation; both tr and the span may be nil
// (tracing off), which is exactly Ranks.
func RanksTraced(n, workers int, tr *tracing.Recorder, track string,
	scope func(i int) string, fn func(i int, sp *tracing.Span) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			sp := startSpan(tr, track, 0, scope, i)
			err := safeCall(i, 0, sp, fn)
			sp.End()
			if err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				sp := startSpan(tr, track, w, scope, i)
				errs[i] = safeCall(i, w, sp, fn)
				sp.End()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// startSpan opens one unit-of-work span, or returns nil when tracing is
// off (the scope string is then never built — fan-out sites run in hot
// loops).
func startSpan(tr *tracing.Recorder, track string, worker int, scope func(i int) string, i int) *tracing.Span {
	if tr == nil {
		return nil
	}
	s := fmt.Sprintf("work %d", i)
	if scope != nil {
		s = scope(i)
	}
	return tr.Start(track, tr.Lane(fmt.Sprintf("worker %d", worker), s), s)
}
