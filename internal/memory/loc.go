package memory

import (
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
)

// Loc is a resolved source location.
type Loc struct {
	File string
	Line int
	Func string
}

// sites caches each call site's resolved location by program counter. The
// published map is never written: readers load it without a lock, and a
// miss publishes a copy with the new site added, under siteMu. A program
// has a few hundred observed call sites, so the copies are small and stop
// once every site has run.
var (
	sites  atomic.Pointer[map[uintptr]Loc]
	siteMu sync.Mutex
)

func init() { sites.Store(&map[uintptr]Loc{}) }

// CallerLoc returns the source location skip frames above the caller.
// skip counts logical frames, inlined ones included, as runtime.Caller
// does: runtime.Callers takes the frame's program counter, and each
// program counter identifies one logical frame. The cache maps that
// counter to its file, line and function, resolved on the site's first
// call. A later call from the same site costs a stack walk of skip+2
// frames and a map lookup, and allocates nothing. Real instrumentation
// knows its source location statically; the cache is the nearest a
// simulated profiler gets.
func CallerLoc(skip int) Loc {
	var pcs [1]uintptr
	if runtime.Callers(skip+2, pcs[:]) == 0 {
		return Loc{}
	}
	if loc, ok := (*sites.Load())[pcs[0]]; ok {
		return loc
	}
	return resolveSite(pcs[0])
}

// resolveSite symbolizes pc and publishes it in the site cache.
func resolveSite(pc uintptr) Loc {
	frame, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	loc := Loc{File: frame.File, Line: frame.Line, Func: frame.Function}
	siteMu.Lock()
	defer siteMu.Unlock()
	next := maps.Clone(*sites.Load())
	next[pc] = loc
	sites.Store(&next)
	return loc
}
