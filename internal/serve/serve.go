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
//   - watchdog deadlines: each job runs under a per-job timeout whose
//     context is threaded into core.Analyze and the trace readers, so a
//     stuck or oversized analysis is reclaimed cooperatively;
//   - panic isolation: a panicking analysis is recovered into a degraded
//     report carrying the panic value and stack — one poisoned job never
//     takes the process down;
//   - one run per job: the analysis is deterministic in its submission,
//     so a failed job ends failed with its error at once; a second run
//     would fail the same way, and a watchdog timeout would only put the
//     same work back on a host that just ran out of time;
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
	// JobTimeout is the per-job watchdog deadline (default 30s).
	JobTimeout time.Duration
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
	return c
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed
}

// Job is a client-visible snapshot of one submitted analysis.
type Job struct {
	ID     string
	Status Status
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
	report    *core.Report
	err       error
	submitted time.Time
}

func (j *job) view() Job {
	v := Job{ID: j.id, Status: j.status}
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

	// ctx parents every job's run; cancel is the forced-stop switch.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	inflight int // jobs admitted but not yet terminal
	draining bool
	seq      int

	// queue is closed by BeginDrain; Submit, its only producer, sends
	// under mu and only before draining starts.
	queue       chan *job
	workersDone chan struct{}

	// testHook, when non-nil, runs at the start of every analysis
	// inside the panic-isolation scope; tests use it to inject
	// panics and blocking to exercise recovery, watchdog, and drain.
	testHook func(ctx context.Context, sub *Submission)

	mSubmitted *obs.Counter
	mShed      *obs.Counter
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
		// buffer that large means Submit's send never blocks.
		queue:       make(chan *job, cfg.QueueBudget),
		workersDone: make(chan struct{}),
	}
	reg := cfg.Obs
	s.mSubmitted = reg.Counter("mcchecker_serve_jobs_submitted_total")
	s.mShed = reg.Counter("mcchecker_serve_shed_total")
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
	defer s.mu.Unlock()
	if s.draining {
		return Job{}, ErrDraining
	}
	if s.inflight >= s.cfg.QueueBudget {
		s.mShed.Inc()
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
	s.queue <- j
	s.gaugesLocked()
	return j.view(), nil
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

// BeginDrain stops admitting new jobs and closes the queue: the workers
// run the jobs already queued to completion, then exit.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.queue)
}

// Drain performs a graceful shutdown: stop admission and wait until the
// worker pool has run every in-flight job to a terminal state and
// exited. ctx bounds the wait; on expiry the pool is left running and an
// error reports how many jobs were still in flight.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	select {
	case <-s.workersDone:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		return fmt.Errorf("serve: drain interrupted with %d job(s) in flight: %w", n, ctx.Err())
	}
}

// Close force-stops the server: running jobs are canceled through their
// watchdog context, so they end failed, and the pool is drained.
// Terminal job records stay queryable.
func (s *Server) Close() error {
	s.BeginDrain()
	s.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// run executes one job on a pool worker and records its terminal state:
// done with the report, or failed with the analysis error.
func (s *Server) run(j *job) {
	s.mu.Lock()
	j.status = StatusRunning
	s.gaugesLocked()
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(s.ctx, s.cfg.JobTimeout)
	rep, err := s.analyze(ctx, j.sub)
	cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	j.status, j.report, j.err = StatusDone, rep, err
	if err != nil {
		j.status = StatusFailed
	}
	s.inflight--
	s.mLatency.Observe(time.Since(j.submitted).Microseconds())
	result := string(j.status)
	if j.status == StatusDone && len(j.report.Degraded) > 0 {
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

// analyze runs one job: materialize the submission's trace set and push
// it through the pipeline, under the watchdog ctx. A panic is converted
// into a degraded report instead of an error, because the salvage
// machinery can still describe a job whose analysis panicked.
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
