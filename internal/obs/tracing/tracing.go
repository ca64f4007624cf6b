// Package tracing is the causal-tracing layer of the MC-Checker
// reproduction: a low-overhead span recorder whose timelines export to
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing).
//
// Where internal/obs aggregates (counters, histograms, total phase
// times), this package keeps *individual* timed events with their track
// and lane, so the interleaving itself is visible: which worker decoded
// which rank file when, how long each region's detection took, where a
// pool sat idle. That is the same idea the paper applies to user programs —
// reconstructing causal order from observed events — pointed at the
// checker's own pipeline.
//
// A Recorder organizes spans into tracks (Perfetto "processes": one per
// pipeline stage — decode, model, epochs, detect_cross, ...) and lanes
// within a track (Perfetto "threads": one per worker, or one per scope
// in deterministic mode). All methods are goroutine-safe and nil-safe: a
// nil *Recorder hands out nil *Spans whose methods are no-ops, so
// pipeline code instruments unconditionally and pays one pointer check
// when tracing is off.
//
// Two clock modes:
//
//   - Wall mode (New): timestamps are microseconds since the recorder
//     was created, lanes are per-worker. This is the real timeline used
//     to diagnose scheduling and load imbalance.
//   - Deterministic mode (NewDeterministic): timestamps are per-lane
//     logical ticks and Lane routes spans to per-scope lanes (a scope —
//     one rank's decode, one region's detection — is processed
//     sequentially whatever the worker count, unlike the worker that
//     happens to pick it up). Two runs of the same analysis produce
//     byte-identical exports at any worker count, which is what makes
//     recordings testable.
package tracing

import (
	"sync"
	"time"
)

// Config parameterizes a Recorder.
type Config struct {
	// Clock supplies wall timestamps; nil means time.Now. Ignored in
	// deterministic mode (which uses per-lane logical ticks).
	Clock func() time.Time
	// Deterministic selects logical-tick timestamps and per-scope lanes
	// (see the package comment).
	Deterministic bool
}

// Recorder collects completed spans and instants. Create one with New,
// NewDeterministic, or NewWithConfig; the zero value is not usable, but a
// nil *Recorder is the disabled configuration (every method no-ops).
type Recorder struct {
	det   bool
	clock func() time.Time
	start time.Time

	mu     sync.Mutex
	events []event
	lanes  map[laneKey]*laneState
}

type laneKey struct{ track, lane string }

// laneState orders one lane's events: tick is the deterministic-mode
// logical clock, seq the per-lane append order used as the sort
// tie-breaker in exports.
type laneState struct {
	tick int64
	seq  int64
}

// event is one completed span (dur >= 0) or instant (dur < 0).
type event struct {
	track string
	lane  string
	name  string
	ts    int64 // µs since start (wall mode) or lane-local tick
	dur   int64 // µs or ticks; < 0 marks an instant
	seq   int64 // per-(track,lane) append order
	args  []string
}

// New returns a wall-clock recorder (lanes per worker, µs timestamps).
func New() *Recorder { return NewWithConfig(Config{}) }

// NewDeterministic returns a recorder whose exports are byte-identical
// across runs and worker counts: logical-tick timestamps, scope lanes.
func NewDeterministic() *Recorder { return NewWithConfig(Config{Deterministic: true}) }

// NewWithConfig returns a recorder with an explicit configuration.
func NewWithConfig(cfg Config) *Recorder {
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	r := &Recorder{
		det:   cfg.Deterministic,
		clock: clock,
		lanes: map[laneKey]*laneState{},
	}
	r.start = clock()
	return r
}

// Lane selects the lane for a unit of work: the worker's lane in wall
// mode (so pool occupancy and idle time are visible), the scope's lane in
// deterministic mode (so the export does not depend on which worker
// happened to pick the scope up). On a nil recorder it returns worker.
func (r *Recorder) Lane(worker, scope string) string {
	if r != nil && r.det {
		return scope
	}
	return worker
}

// lane returns the lane state for (track, lane), creating it on first
// use. Caller holds mu.
func (r *Recorder) laneLocked(track, lane string) *laneState {
	k := laneKey{track, lane}
	ls := r.lanes[k]
	if ls == nil {
		ls = &laneState{}
		r.lanes[k] = ls
	}
	return ls
}

// now returns the next timestamp for a lane. Caller holds mu.
func (r *Recorder) nowLocked(ls *laneState) int64 {
	if r.det {
		t := ls.tick
		ls.tick++
		return t
	}
	return r.clock().Sub(r.start).Microseconds()
}

// Span is one in-flight timed section. Annotate and End must be called
// by the goroutine that started the span (spans are not shared); a nil
// *Span (from a nil Recorder) ignores both.
type Span struct {
	r     *Recorder
	track string
	lane  string
	name  string
	ts    int64
	args  []string
}

// Start opens a span on (track, lane). A nil recorder returns a nil span.
func (r *Recorder) Start(track, lane, name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ts := r.nowLocked(r.laneLocked(track, lane))
	r.mu.Unlock()
	return &Span{r: r, track: track, lane: lane, name: name, ts: ts}
}

// Annotate attaches a key/value argument to the span (rendered in the
// Perfetto "args" pane). No-op on a nil span.
func (sp *Span) Annotate(key, value string) {
	if sp == nil {
		return
	}
	sp.args = append(sp.args, key, value)
}

// End completes the span and records it. No-op on a nil span.
func (sp *Span) End() {
	if sp == nil || sp.r == nil {
		return
	}
	r := sp.r
	r.mu.Lock()
	ls := r.laneLocked(sp.track, sp.lane)
	end := r.nowLocked(ls)
	r.events = append(r.events, event{
		track: sp.track, lane: sp.lane, name: sp.name,
		ts: sp.ts, dur: end - sp.ts, seq: ls.seq, args: sp.args,
	})
	ls.seq++
	r.mu.Unlock()
	sp.r = nil // a second End is a no-op
}

// Instant records a point event on (track, lane). No-op on a nil recorder.
func (r *Recorder) Instant(track, lane, name string, kv ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ls := r.laneLocked(track, lane)
	ts := r.nowLocked(ls)
	r.events = append(r.events, event{
		track: track, lane: lane, name: name, ts: ts, dur: -1, seq: ls.seq, args: kv,
	})
	ls.seq++
	r.mu.Unlock()
}

// AddSpanAt records a completed span with explicit timestamps, for
// synthesized timelines (e.g. a violation's happens-before witness laid
// out by step index rather than by clock). No-op on a nil recorder.
func (r *Recorder) AddSpanAt(track, lane, name string, ts, dur int64, kv ...string) {
	if r == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	r.mu.Lock()
	ls := r.laneLocked(track, lane)
	r.events = append(r.events, event{
		track: track, lane: lane, name: name, ts: ts, dur: dur, seq: ls.seq, args: kv,
	})
	ls.seq++
	if r.det && ls.tick <= ts {
		ls.tick = ts + 1 // keep later Start/Instant ticks after explicit times
	}
	r.mu.Unlock()
}

// Len returns the number of recorded events (0 on a nil recorder).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// snapshot copies the recorded events for export.
func (r *Recorder) snapshot() []event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]event(nil), r.events...)
}
