// Package explore implements schedule-space exploration for MC-Checker:
// it runs a target program many times under distinct deterministic
// schedules and aggregates what the analyzer finds across the sweep.
//
// A single MC-Checker run observes one interleaving. The paper's dynamic
// analysis is sound for the schedule it saw, but a memory consistency
// error hiding behind a data-dependent branch — a recovery path taken
// only when a legal RMA race resolves the unusual way — never reaches the
// trace. This package closes that gap the way stateless model checkers
// do: enumerate many legal completion orders (internal/faults schedule
// plans, replayed exactly by the simulator), analyze each run, and
// deduplicate the findings by a canonical, rank-stable violation
// signature. Every finding carries the plan that produced it, and ddmin
// minimization (Minimize) shrinks that plan to a minimal `-faults`
// string replayable with `mcchecker run`.
//
// The engine (Explore) fans schedules out over a worker pool, honors a
// schedule count and a wall-clock budget, reports progress, and feeds
// the obs registry so `-stats` covers exploration like every other
// pipeline phase.
package explore

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// Runner executes one program under one schedule plan and returns the
// analyzer's report. It is the single-run primitive shared by the
// exploration engine, the minimizer, the soak harness, and the
// `mcchecker run` offline path. A Runner is safe for concurrent use:
// every Run builds its own simulator world and trace sink.
type Runner struct {
	// Body is the per-rank program (a registry BugCase variant).
	Body func(p *mpi.Proc) error
	// Ranks is the simulated world size.
	Ranks int
	// Rel selects the instrumented buffers; nil instruments everything.
	Rel profiler.Relevance
	// Timeout is the per-run deadlock watchdog (0 = simulator default).
	Timeout time.Duration
	// IntraOnly disables cross-process detection (SyncChecker baseline).
	IntraOnly bool
	// Obs receives run metrics; nil disables the accounting.
	Obs *obs.Registry
	// Trace, when non-nil, records the analysis pipeline's span timeline
	// for runs started through this runner. Only set it on single-run
	// paths (`mcchecker run`): the fine-grained pipeline lanes are not
	// meaningful when many schedules analyze concurrently — Explore uses
	// the coarser per-schedule Config.Trace instead.
	Trace *tracing.Recorder
	// OnTrace, when non-nil, observes the padded trace set of each run
	// before analysis (used by `mcchecker run -trace` to persist files).
	OnTrace func(*trace.Set)

	// sinks recycles MemorySinks across runs. A sweep re-collects
	// comparable traces thousands of times, so reusing the per-rank event
	// buffers removes the dominant per-run allocation. Safe because Run
	// hands the aliased set (TakeSet) to nothing that outlives it: the
	// report keeps only value copies of events.
	sinks sync.Pool
}

// getSink returns a recycled (reset) sink when one is available, else a
// fresh one.
func (r *Runner) getSink() *trace.MemorySink {
	if s, ok := r.sinks.Get().(*trace.MemorySink); ok {
		s.Reset()
		r.Obs.Counter("mcchecker_pipeline_sink_pool_hits_total").Inc()
		return s
	}
	r.Obs.Counter("mcchecker_pipeline_sink_pool_misses_total").Inc()
	return trace.NewMemorySink()
}

// Run executes the program once under plan and analyzes the trace. With
// an active plan (or a degraded simulation) the analysis runs in
// degraded mode so the report carries the loss diagnostics; otherwise
// the strict path is used. This mirrors `mcchecker run` exactly, which
// is what makes an explorer finding replayable: the same plan string
// fed to `-faults` reproduces the same report.
func (r *Runner) Run(plan *faults.Plan) (*core.Report, error) {
	sink := r.getSink()
	recycle := true
	defer func() {
		if recycle {
			r.sinks.Put(sink)
		}
	}()
	pr := profiler.NewObs(sink, r.Rel, r.Obs)
	var notes []string
	err := mpi.Run(r.Ranks, mpi.Options{Hook: pr, Obs: r.Obs, Timeout: r.Timeout, Faults: plan}, r.Body)
	if err != nil {
		if !mpi.Degraded(err) {
			// A deadlock watchdog return leaves rank goroutines alive and
			// possibly still emitting; the sink must not be reused.
			recycle = false
			return nil, fmt.Errorf("run failed: %w", err)
		}
		notes = FlattenErrs(err)
	}
	set := padSet(sink.TakeSet(), r.Ranks)
	if r.OnTrace != nil {
		r.OnTrace(set)
	}
	set, tnotes, err := trace.ApplyTruncFaults(set, plan, r.Obs)
	if err != nil {
		return nil, err
	}
	notes = append(notes, tnotes...)

	opts := core.DefaultOptions()
	opts.CrossProcess = !r.IntraOnly
	opts.Obs = r.Obs
	opts.Trace = r.Trace
	if plan.Active() || len(notes) > 0 {
		return core.AnalyzeDegraded(set, opts, notes)
	}
	rep, err := core.AnalyzeWith(set, opts)
	if err != nil {
		return nil, fmt.Errorf("analysis failed: %w", err)
	}
	return rep, nil
}

// padSet widens a memory-collected set to the full world size: a rank
// that crashed before emitting anything still occupies its slot.
func padSet(s *trace.Set, n int) *trace.Set {
	if len(s.Traces) >= n {
		return s
	}
	out := trace.NewSet(n)
	copy(out.Traces, s.Traces)
	return out
}

// FlattenErrs splits a joined error tree into one note per leaf: the
// degraded notes of a run whose ranks crashed or failed.
func FlattenErrs(err error) []string {
	if err == nil {
		return nil
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		var notes []string
		for _, sub := range j.Unwrap() {
			notes = append(notes, FlattenErrs(sub)...)
		}
		return notes
	}
	return []string{err.Error()}
}

// minimizeRuns caps the extra runs ddmin spends on one finding. A sweep's
// plans hold at most two schedule clauses, which ddmin settles in at most
// six runs.
const minimizeRuns = 64

// Config parameterizes one exploration.
type Config struct {
	Runner *Runner
	// Hints are origin ranks named by static diagnostics
	// (HintsFromDiagnostics). When set, delay plans for them run before
	// the seed sweep.
	Hints []int
	// Schedules is the number of distinct schedules to try.
	Schedules int
	// Jobs is the worker-pool width; 0 means GOMAXPROCS.
	Jobs int
	// Budget caps wall-clock time; 0 means unlimited. Schedules already
	// running when the budget expires finish and are counted.
	Budget time.Duration
	// Seed is the base seed the schedules derive from: schedule i of the
	// sweep runs under seed Seed+i.
	Seed uint64
	// Minimize runs ddmin on each finding's first schedule, capped at
	// minimizeRuns extra runs per finding.
	Minimize bool
	// Progress, when non-nil, receives a live one-line progress display
	// (schedules/sec, distinct violations) and a final summary line.
	Progress io.Writer
	// Trace, when non-nil, records one span per schedule run on the
	// "explore" track (lanes per pool worker), annotated with the plan
	// and the run's outcome — the sweep-level timeline that shows pool
	// occupancy and stragglers. It is distinct from Runner.Trace, which
	// records pipeline-internal lanes and must stay nil during a sweep.
	Trace *tracing.Recorder
}

// Finding is one distinct violation signature discovered by a sweep,
// with the evidence needed to reproduce it.
type Finding struct {
	// Signature is the canonical rank-stable violation signature.
	Signature string
	// Example is a representative violation (from the earliest schedule
	// index that produced the signature, so it is jobs-independent).
	Example *core.Violation
	// Count is the number of schedules whose report contained the
	// signature (not the number of violation instances).
	Count int
	// FirstIndex and FirstPlan identify the earliest schedule that
	// produced the signature; FirstPlan.String() replays it.
	FirstIndex int
	FirstPlan  *faults.Plan
	// Minimized is the ddmin-reduced plan string ("" when minimization
	// was off or failed to reproduce); MinimizeRuns counts the extra
	// runs it spent.
	Minimized    string
	MinimizeRuns int
}

// Result aggregates one exploration.
type Result struct {
	// Strategy names the schedules run (StrategyName).
	Strategy string
	// Schedules counts completed runs (≤ Config.Schedules under a budget).
	Schedules int
	// Violating counts runs whose report had at least one violation.
	Violating int
	// Failures counts runs that errored outright (no report).
	Failures int
	// Findings are the distinct violations, sorted by signature.
	Findings []*Finding
	// Elapsed is the wall-clock time of the sweep (minimization included).
	Elapsed time.Duration
}

// Distinct returns the number of distinct violation signatures found.
func (r *Result) Distinct() int { return len(r.Findings) }

// SchedulesPerSec returns the sweep throughput.
func (r *Result) SchedulesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Schedules) / r.Elapsed.Seconds()
}

// progressInterval throttles the live progress line.
const progressInterval = 200 * time.Millisecond

// Explore sweeps the schedule space: it generates Config.Schedules plans
// (the hinted prefix, then the seed sweep), runs them on a pool of
// Config.Jobs workers, and aggregates violations by canonical signature.
// The findings (signature set, counts, first-producing schedule) are
// deterministic for a given (hints, seed, schedule count) regardless of
// Jobs; only under an expiring Budget can the number of completed
// schedules — and therefore the tail of the aggregate — vary between runs.
func Explore(cfg Config) (*Result, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("explore: Config.Runner is required")
	}
	if cfg.Schedules <= 0 {
		return nil, fmt.Errorf("explore: Schedules must be positive (got %d)", cfg.Schedules)
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > cfg.Schedules {
		jobs = cfg.Schedules
	}
	reg := cfg.Runner.Obs
	schedTotal := reg.Counter("mcchecker_explore_schedules_total")
	violTotal := reg.Counter("mcchecker_explore_violating_total")
	failTotal := reg.Counter("mcchecker_explore_failures_total")
	distinctGauge := reg.Gauge("mcchecker_explore_distinct_violations")
	span := reg.StartSpan(obs.PhaseSpanName, "phase", "explore")
	defer span.End()

	start := time.Now()
	var deadline time.Time
	if cfg.Budget > 0 {
		deadline = start.Add(cfg.Budget)
	}

	res := &Result{Strategy: StrategyName(cfg.Hints)}
	findings := map[string]*Finding{}
	var mu sync.Mutex
	var firstErr error
	record := func(i int, plan *faults.Plan, rep *core.Report, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			res.Failures++
			failTotal.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("schedule %d (%s): %w", i, plan, err)
			}
			return
		}
		res.Schedules++
		schedTotal.Inc()
		if len(rep.Violations) == 0 {
			return
		}
		res.Violating++
		violTotal.Inc()
		seen := map[string]bool{} // count each signature once per schedule
		for _, v := range rep.Violations {
			sig := v.Signature()
			if seen[sig] {
				continue
			}
			seen[sig] = true
			f := findings[sig]
			if f == nil {
				f = &Finding{Signature: sig, FirstIndex: i, FirstPlan: plan, Example: v}
				findings[sig] = f
			} else if i < f.FirstIndex {
				f.FirstIndex, f.FirstPlan, f.Example = i, plan, v
			}
			f.Count++
		}
		distinctGauge.Set(int64(len(findings)))
	}

	// Worker pool over schedule indices. The feeder stops handing out
	// work once the budget expires; in-flight runs complete normally.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				plan := schedulePlan(i, cfg.Seed, cfg.Hints, cfg.Runner.Ranks)
				var sp *tracing.Span
				if cfg.Trace != nil {
					scope := fmt.Sprintf("schedule %d", i)
					sp = cfg.Trace.Start("explore", cfg.Trace.Lane(fmt.Sprintf("worker %d", w), scope), scope)
					sp.Annotate("plan", plan.String())
				}
				rep, err := cfg.Runner.Run(plan)
				if sp != nil {
					switch {
					case err != nil:
						sp.Annotate("outcome", "failure")
					default:
						sp.Annotate("violations", fmt.Sprintf("%d", len(rep.Violations)))
					}
					sp.End()
				}
				record(i, plan, rep, err)
			}
		}(w)
	}

	lastProgress := start
	progress := func(force bool) {
		if cfg.Progress == nil {
			return
		}
		now := time.Now()
		if !force && now.Sub(lastProgress) < progressInterval {
			return
		}
		lastProgress = now
		mu.Lock()
		done, distinct := res.Schedules, len(findings)
		mu.Unlock()
		rate := float64(done) / now.Sub(start).Seconds()
		fmt.Fprintf(cfg.Progress, "\rexplore[%s]: %d/%d schedules (%.0f/s), %d distinct violation(s)   ",
			res.Strategy, done, cfg.Schedules, rate, distinct)
	}

feed:
	for i := 0; i < cfg.Schedules; i++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break feed
		}
		idx <- i
		progress(false)
	}
	close(idx)
	wg.Wait()
	progress(true)
	if cfg.Progress != nil {
		fmt.Fprintln(cfg.Progress)
	}
	if firstErr != nil {
		return nil, firstErr
	}

	for _, f := range findings {
		res.Findings = append(res.Findings, f)
	}
	sort.Slice(res.Findings, func(a, b int) bool {
		return res.Findings[a].Signature < res.Findings[b].Signature
	})

	if cfg.Minimize {
		minTotal := reg.Counter("mcchecker_explore_minimize_runs_total")
		for _, f := range res.Findings {
			min, runs, err := Minimize(cfg.Runner, f.FirstPlan, f.Signature, minimizeRuns)
			f.MinimizeRuns = runs
			minTotal.Add(int64(runs))
			if err != nil {
				return nil, fmt.Errorf("minimizing %s: %w", f.Signature, err)
			}
			if min != nil {
				f.Minimized = min.String()
			}
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "minimized %s in %d run(s): -faults %q\n",
					f.Signature, runs, f.Minimized)
			}
		}
	}

	res.Elapsed = time.Since(start)
	return res, nil
}
