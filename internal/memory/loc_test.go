package memory

import (
	"runtime"
	"sync"
	"testing"
)

// refLoc is the uncached reference: runtime.Caller for the file and line,
// and the function of the same program counter.
func refLoc(skip int) Loc {
	pc, file, line, ok := runtime.Caller(skip + 1)
	if !ok {
		return Loc{}
	}
	return Loc{File: file, Line: line, Func: runtime.FuncForPC(pc).Name()}
}

// bothAt returns CallerLoc and refLoc for the frame skip levels above
// bothAt's caller. It is never inlined, so it adds exactly one frame.
//
//go:noinline
func bothAt(skip int) (got, want Loc) { return CallerLoc(skip + 1), refLoc(skip + 1) }

//go:noinline
func bothAt1(skip int) (got, want Loc) { return bothAt(skip + 1) }

// inlLoc and inlRef are small enough to be inlined into their caller, so
// the frame above them is an inlined call's parent: CallerLoc must count
// the inlined frame and report the caller's own line and function.
func inlLoc(skip int) Loc { return CallerLoc(skip + 1) }
func inlRef(skip int) Loc { return refLoc(skip + 1) }

func checkLoc(t *testing.T, name string, got, want Loc) {
	t.Helper()
	if got != want {
		t.Errorf("%s: CallerLoc = %+v, runtime.Caller gives %+v", name, got, want)
	}
	if want.File == "" || want.Line == 0 || want.Func == "" {
		t.Errorf("%s: reference location %+v is incomplete", name, want)
	}
}

func TestCallerLocMatchesRuntimeCaller(t *testing.T) {
	// Each pair is taken twice: the first call resolves the site, the
	// second must hit the cache and return the same location.
	for i := 0; i < 2; i++ {
		got, want := CallerLoc(0), refLoc(0)
		checkLoc(t, "skip 0", got, want)
		got, want = bothAt(0)
		checkLoc(t, "skip 0 via helper", got, want)
		got, want = bothAt(1)
		checkLoc(t, "skip 1", got, want)
		got, want = bothAt1(1)
		checkLoc(t, "skip 2", got, want)
		got, want = inlLoc(0), inlRef(0)
		checkLoc(t, "through an inlined helper", got, want)
		if got.Func != "repro/internal/memory.TestCallerLocMatchesRuntimeCaller" {
			t.Errorf("inlined helper: Func = %q, want the test function", got.Func)
		}
	}
}

func TestCallerLocConcurrent(t *testing.T) {
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for skip := 0; skip < 3; skip++ {
					if got, want := bothAt(skip); got != want {
						errs <- "skip mismatch"
						return
					}
				}
				if got, want := inlLoc(0), inlRef(0); got != want {
					errs <- "inlined mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestCallerLocWarmSiteDoesNotAllocate(t *testing.T) {
	site := func() Loc { return CallerLoc(0) }
	site()
	if n := testing.AllocsPerRun(100, func() { _ = site() }); n != 0 {
		t.Errorf("CallerLoc on a warm site allocates %.1f times per call, want 0", n)
	}
}
