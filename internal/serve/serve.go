// Package serve implements the mcchecker analysis daemon: a long-running
// HTTP/JSON service that accepts trace sets (inline uploads or
// server-local directories), runs the MC-Checker offline pipeline on a
// bounded worker pool, and exposes per-job results, health, and metrics.
//
// The daemon is built for hostile operating conditions rather than for
// throughput alone:
//
//   - admission control: a global queue budget bounds the jobs admitted
//     but not yet finished; past it, submissions are shed immediately
//     (HTTP 429 with Retry-After) instead of growing memory without bound;
//   - watchdog deadlines: each attempt runs under a per-job timeout whose
//     context is threaded into core.Analyze and the trace readers, so a
//     stuck or oversized analysis is reclaimed cooperatively;
//   - panic isolation: a panicking analysis is recovered into a degraded
//     report carrying the panic value and stack — one poisoned job never
//     takes the process down;
//   - retry and quarantine: failed attempts are retried with exponential
//     backoff; a job still failing after MaxAttempts is quarantined with
//     its final error rather than retried forever;
//   - salvage: truncated or corrupt uploads and trace files are read by
//     the trace layer's salvaging reader and analyzed as a degraded
//     report, as in `mcchecker analyze`;
//   - graceful drain: BeginDrain stops admission while in-flight jobs run
//     to completion, so SIGTERM loses no accepted work.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a sensible default.
type Config struct {
	// Workers is the analysis worker pool width (default GOMAXPROCS).
	Workers int
	// QueueBudget bounds the jobs admitted but not yet terminal; further
	// submissions are shed with ErrOverloaded (default 4x Workers).
	QueueBudget int
	// JobTimeout is the per-attempt watchdog deadline (default 30s).
	JobTimeout time.Duration
	// MaxAttempts is how many attempts a job gets before quarantine
	// (default 3).
	MaxAttempts int
	// RetryBackoff is the base retry delay, doubled per attempt
	// (default 100ms).
	RetryBackoff time.Duration
	// Obs receives the serve metric families and the per-job analysis
	// metrics. Nil disables all accounting.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueBudget <= 0 {
		c.QueueBudget = 4 * c.Workers
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	return c
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued      Status = "queued"
	StatusRunning     Status = "running"
	StatusRetryWait   Status = "retry-wait"
	StatusDone        Status = "done"
	StatusFailed      Status = "failed"
	StatusQuarantined Status = "quarantined"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusQuarantined
}

// Job is a client-visible snapshot of one submitted analysis.
type Job struct {
	ID       string
	Status   Status
	Attempts int
	// Degraded is true when the finished report carries degradation
	// notes (salvaged upload, recovered panic, partial analysis).
	Degraded   bool
	Violations int
	Error      string
	// Report is set once Status is StatusDone; it is immutable from
	// then on.
	Report *core.Report
}

// Sentinel errors for the admission path; the HTTP layer maps them to
// status codes (429 and 503).
var (
	ErrOverloaded = errors.New("serve: queue budget exhausted")
	ErrDraining   = errors.New("serve: server is draining")
	ErrUnknownJob = errors.New("serve: unknown job")
)

// job is the server-side record; all mutable fields are guarded by
// Server.mu.
type job struct {
	id        string
	sub       *Submission
	status    Status
	attempts  int
	report    *core.Report
	err       error
	submitted time.Time
	retry     *time.Timer
}

func (j *job) view() Job {
	v := Job{ID: j.id, Status: j.status, Attempts: j.attempts}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.report != nil {
		v.Report = j.report
		v.Degraded = len(j.report.Degraded) > 0
		v.Violations = len(j.report.Violations)
	}
	return v
}

// Server is the analysis daemon. Construct with New, serve its HTTP API
// via Handler, and stop it with Drain (graceful) or Close (forced).
type Server struct {
	cfg Config

	// ctx parents every job attempt; cancel is the forced-stop switch.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	inflight int // jobs admitted but not yet terminal
	draining bool
	seq      int

	queue       chan *job
	closeQueue  sync.Once
	workersDone chan struct{}

	// testHook, when non-nil, runs at the start of every analysis
	// attempt inside the panic-isolation scope; tests use it to inject
	// panics and blocking to exercise recovery, watchdog, and drain.
	testHook func(ctx context.Context, sub *Submission)

	mSubmitted *obs.Counter
	mShed      *obs.Counter
	mRetries   *obs.Counter
	mPanics    *obs.Counter
	mDepth     *obs.Gauge
	mInflight  *obs.Gauge
	mLatency   *obs.Histogram
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		jobs:   map[string]*job{},
		// Admission bounds the jobs in flight by QueueBudget, so a
		// buffer that large means queue sends never block.
		queue:       make(chan *job, cfg.QueueBudget+cfg.Workers),
		workersDone: make(chan struct{}),
	}
	reg := cfg.Obs
	s.mSubmitted = reg.Counter("mcchecker_serve_jobs_submitted_total")
	s.mShed = reg.Counter("mcchecker_serve_shed_total")
	s.mRetries = reg.Counter("mcchecker_serve_retries_total")
	s.mPanics = reg.Counter("mcchecker_serve_panics_recovered_total")
	s.mDepth = reg.Gauge("mcchecker_serve_queue_depth")
	s.mInflight = reg.Gauge("mcchecker_serve_inflight_jobs")
	s.mLatency = reg.Histogram("mcchecker_serve_job_latency_us")
	// analyze recovers a job's panic into a degraded report, so a
	// worker never dies with its job.
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range s.queue {
				s.run(j)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(s.workersDone)
	}()
	return s
}

// Submit admits a new job, or rejects it with ErrOverloaded (queue budget
// exhausted — the caller should retry later) or ErrDraining (shutdown in
// progress). The returned snapshot carries the job ID for polling.
func (s *Server) Submit(sub *Submission) (Job, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Job{}, ErrDraining
	}
	if s.inflight >= s.cfg.QueueBudget {
		s.mShed.Inc()
		s.mu.Unlock()
		return Job{}, ErrOverloaded
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		sub:       sub,
		status:    StatusQueued,
		submitted: time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.inflight++
	s.mSubmitted.Inc()
	v := j.view()
	s.gaugesLocked()
	s.mu.Unlock()
	s.queue <- j
	return v, nil
}

// Job returns a snapshot of one job.
func (s *Server) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.view(), true
}

// Jobs returns snapshots of all jobs in submission order.
func (s *Server) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// WaitJob polls until the job reaches a terminal status or ctx expires,
// returning the latest snapshot either way. Unknown IDs fail with
// ErrUnknownJob.
func (s *Server) WaitJob(ctx context.Context, id string) (Job, error) {
	for {
		v, ok := s.Job(id)
		if !ok {
			return Job{}, ErrUnknownJob
		}
		if v.Status.Terminal() || ctx.Err() != nil {
			return v, nil
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// BeginDrain stops admitting new jobs. Queued and running jobs run to
// completion; jobs waiting on a retry backoff are abandoned as failed —
// a draining server has no later to retry in.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	for _, id := range s.order {
		j := s.jobs[id]
		if j.status == StatusRetryWait && j.retry != nil && j.retry.Stop() {
			s.finalizeLocked(j, StatusFailed,
				fmt.Errorf("retry abandoned (server draining): %w", j.err))
		}
	}
}

// Drain performs a graceful shutdown: stop admission, wait for every
// in-flight job to reach a terminal state, then stop the worker pool.
// ctx bounds the wait; on expiry the pool is left running and an error
// reports how many jobs were still in flight.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	for {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain interrupted with %d job(s) in flight: %w", n, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
	s.closeQueue.Do(func() { close(s.queue) })
	<-s.workersDone
	return nil
}

// Close force-stops the server: running attempts are canceled through
// their watchdog context (so they finalize as failed under the draining
// rule) and the pool is drained. Terminal job records stay queryable.
func (s *Server) Close() error {
	s.BeginDrain()
	s.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// run executes one attempt of one job on a pool worker.
func (s *Server) run(j *job) {
	s.mu.Lock()
	j.status = StatusRunning
	j.attempts++
	attempts := j.attempts
	s.gaugesLocked()
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(s.ctx, s.cfg.JobTimeout)
	rep, err := s.analyze(ctx, j.sub)
	cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		j.report = rep
		s.finalizeLocked(j, StatusDone, nil)
	case attempts >= s.cfg.MaxAttempts:
		s.finalizeLocked(j, StatusQuarantined,
			fmt.Errorf("quarantined after %d attempt(s): %w", attempts, err))
	case s.draining:
		s.finalizeLocked(j, StatusFailed,
			fmt.Errorf("retry abandoned (server draining): %w", err))
	default:
		j.status = StatusRetryWait
		j.err = err
		s.mRetries.Inc()
		backoff := s.cfg.RetryBackoff << (attempts - 1)
		j.retry = time.AfterFunc(backoff, func() { s.requeue(j) })
		s.gaugesLocked()
	}
}

// requeue moves a job from retry-wait back onto the queue when its
// backoff timer fires.
func (s *Server) requeue(j *job) {
	s.mu.Lock()
	if j.status != StatusRetryWait {
		s.mu.Unlock()
		return
	}
	if s.draining {
		s.finalizeLocked(j, StatusFailed,
			fmt.Errorf("retry abandoned (server draining): %w", j.err))
		s.mu.Unlock()
		return
	}
	j.status = StatusQueued
	s.gaugesLocked()
	s.mu.Unlock()
	s.queue <- j
}

// finalizeLocked records a job's terminal state. Caller holds s.mu.
func (s *Server) finalizeLocked(j *job, st Status, err error) {
	j.status = st
	j.err = err
	j.retry = nil
	s.inflight--
	s.mLatency.Observe(time.Since(j.submitted).Microseconds())
	result := string(st)
	if st == StatusDone && j.report != nil && len(j.report.Degraded) > 0 {
		result = "degraded"
	}
	s.cfg.Obs.Counter("mcchecker_serve_jobs_total", "result", result).Inc()
	s.gaugesLocked()
}

// gaugesLocked refreshes the depth gauges. Caller holds s.mu.
func (s *Server) gaugesLocked() {
	s.mDepth.Set(int64(len(s.queue)))
	s.mInflight.Set(int64(s.inflight))
}

// analyze runs one attempt: materialize the submission's trace set and
// push it through the pipeline, under the watchdog ctx. A panic is
// converted into a degraded report instead of an error, because a
// deterministic panic would otherwise burn every retry and quarantine a
// job the salvage machinery can still describe.
func (s *Server) analyze(ctx context.Context, sub *Submission) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mPanics.Inc()
			rep, err = panicReport(r, debug.Stack()), nil
		}
	}()
	if s.testHook != nil {
		s.testHook(ctx, sub)
	}
	sc := obs.Scope{Ctx: ctx, Obs: s.cfg.Obs}
	set, notes, err := sub.load(sc)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Scope = sc
	if sub.IntraOnly {
		opts.CrossProcess = false
	}
	if sub.Strict {
		return core.AnalyzeWith(set, opts)
	}
	return core.AnalyzeDegraded(set, opts, notes)
}

// panicReport wraps a recovered panic as a degraded (empty) report so the
// client sees what happened to its job.
func panicReport(v any, stack []byte) *core.Report {
	rep := &core.Report{}
	rep.Degraded = append(rep.Degraded,
		fmt.Sprintf("analysis panicked (recovered): %v", v),
		"panic stack:\n"+string(stack))
	return rep
}
