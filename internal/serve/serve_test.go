package serve

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// conflictSet builds the paper's Figure 2d bug — a Put racing a local
// store at the target — so jobs produce exactly one violation.
func conflictSet() *trace.Set {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared,
		File: "app.go", Line: 60})
	b.Add(0, trace.Event{Kind: trace.KindPut, Win: 1, Target: 1,
		OriginAddr: 0x500, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1,
		File: "app.go", Line: 61})
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1, File: "app.go", Line: 62})
	b.Add(1, trace.Event{Kind: trace.KindStore, Addr: 0x1000, Size: 4, File: "app.go", Line: 63})
	return b.Set()
}

// uploads encodes a set as inline rank uploads.
func uploads(t *testing.T, set *trace.Set) []RankUpload {
	t.Helper()
	ups := make([]RankUpload, 0, set.Ranks())
	for _, tr := range set.Traces {
		data, err := trace.EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, RankUpload{Rank: tr.Rank, Data: data})
	}
	return ups
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func waitDone(t *testing.T, s *Server, id string) Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	j, err := s.WaitJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Status.Terminal() {
		t.Fatalf("job %s still %s after wait", id, j.Status)
	}
	return j
}

func TestServeCleanJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	j, err := s.Submit(&Submission{Traces: uploads(t, conflictSet())})
	if err != nil {
		t.Fatal(err)
	}
	j = waitDone(t, s, j.ID)
	if j.Status != StatusDone {
		t.Fatalf("status = %s (error %q)", j.Status, j.Error)
	}
	if j.Degraded {
		t.Fatalf("clean upload reported degraded: %v", j.Report.Degraded)
	}
	if j.Violations != 1 {
		t.Fatalf("violations = %d, want 1", j.Violations)
	}
}

// A trace-directory job decodes through the same instrumented reader as
// `mcchecker analyze`, so the daemon's registry sees its codec metrics
// and front-end gauges.
func TestServeTraceDirJobRecordsDecodeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, Obs: reg})
	set := conflictSet()
	dir := t.TempDir()
	if err := trace.WriteDir(dir, set); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(&Submission{TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j = waitDone(t, s, j.ID)
	if j.Status != StatusDone || j.Violations != 1 {
		t.Fatalf("status = %s violations = %d (error %q), want done with 1", j.Status, j.Violations, j.Error)
	}
	snap := reg.Snapshot()
	if got, want := snap.CounterValue("mcchecker_trace_decoded_events_total"), int64(set.TotalEvents()); got != want {
		t.Errorf("decoded_events_total = %d, want %d", got, want)
	}
	hits := snap.CounterValue("mcchecker_pipeline_decode_pool_hits_total")
	misses := snap.CounterValue("mcchecker_pipeline_decode_pool_misses_total")
	if hits+misses != 1 {
		t.Errorf("decode pool hits %d + misses %d, want one context for the one read", hits, misses)
	}
}

func TestServeSalvagesTruncatedUpload(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, Obs: reg})
	ups := uploads(t, conflictSet())
	ups[1].Data = ups[1].Data[:len(ups[1].Data)/2]
	j, err := s.Submit(&Submission{Traces: ups})
	if err != nil {
		t.Fatal(err)
	}
	j = waitDone(t, s, j.ID)
	if j.Status != StatusDone {
		t.Fatalf("status = %s (error %q), want done-degraded", j.Status, j.Error)
	}
	if !j.Degraded {
		t.Fatal("truncated upload did not degrade the report")
	}
	found := false
	for _, n := range j.Report.Degraded {
		if strings.Contains(n, "truncated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no truncation note in %v", j.Report.Degraded)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("mcchecker_serve_jobs_total", "result", "degraded"); got != 1 {
		t.Fatalf("jobs_total{result=degraded} = %d, want 1", got)
	}
}

func TestServeShedsWhenSaturated(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, QueueBudget: 2, Obs: reg})
	release := make(chan struct{})
	s.testHook = func(ctx context.Context, _ *Submission) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	sub := &Submission{Traces: uploads(t, conflictSet())}
	j1, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(sub); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submit past the budget: err = %v, want ErrOverloaded", err)
	}
	if got := reg.Snapshot().CounterValue("mcchecker_serve_shed_total"); got != 1 {
		t.Fatalf("shed_total = %d, want 1", got)
	}
	close(release)
	waitDone(t, s, j1.ID)
	waitDone(t, s, j2.ID)
	// With the budget drained, admission opens again.
	s.testHook = nil
	j4, err := s.Submit(sub)
	if err != nil {
		t.Fatalf("submit after drain-down: %v", err)
	}
	if j := waitDone(t, s, j4.ID); j.Status != StatusDone {
		t.Fatalf("post-shed job status = %s (%q)", j.Status, j.Error)
	}
}

func TestServePanicRecoveredAsDegraded(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, Obs: reg})
	s.testHook = func(context.Context, *Submission) { panic("injected analysis panic") }
	j, err := s.Submit(&Submission{Traces: uploads(t, conflictSet())})
	if err != nil {
		t.Fatal(err)
	}
	j = waitDone(t, s, j.ID)
	if j.Status != StatusDone || !j.Degraded {
		t.Fatalf("panicked job: status = %s degraded = %v (error %q)", j.Status, j.Degraded, j.Error)
	}
	if !strings.Contains(strings.Join(j.Report.Degraded, "\n"), "injected analysis panic") {
		t.Fatalf("panic value missing from notes: %v", j.Report.Degraded)
	}
	if !strings.Contains(strings.Join(j.Report.Degraded, "\n"), "goroutine") {
		t.Fatalf("panic stack missing from notes")
	}
	if got := reg.Snapshot().CounterValue("mcchecker_serve_panics_recovered_total"); got != 1 {
		t.Fatalf("panics_recovered_total = %d, want 1", got)
	}
	// The process — and the worker — survived: the next job runs clean.
	s.testHook = nil
	j2, err := s.Submit(&Submission{Traces: uploads(t, conflictSet())})
	if err != nil {
		t.Fatal(err)
	}
	if j2 = waitDone(t, s, j2.ID); j2.Status != StatusDone || j2.Degraded {
		t.Fatalf("job after panic: status = %s degraded = %v", j2.Status, j2.Degraded)
	}
}

// A failed analysis ends failed after its one run, and the worker goes
// on to the next job.
func TestServeFailedJobIsTerminal(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, Obs: reg})
	// A nonexistent directory is a poison job: it fails identically on
	// every run.
	missing := filepath.Join(t.TempDir(), "missing")
	j, err := s.Submit(&Submission{TraceDir: missing})
	if err != nil {
		t.Fatal(err)
	}
	j = waitDone(t, s, j.ID)
	if j.Status != StatusFailed {
		t.Fatalf("status = %s (error %q), want failed", j.Status, j.Error)
	}
	if !strings.Contains(j.Error, missing) {
		t.Fatalf("error = %q, want it to name %s", j.Error, missing)
	}
	if got := reg.Snapshot().CounterValue("mcchecker_serve_jobs_total", "result", "failed"); got != 1 {
		t.Fatalf("jobs_total{result=failed} = %d, want 1", got)
	}
	j2, err := s.Submit(&Submission{Traces: uploads(t, conflictSet())})
	if err != nil {
		t.Fatal(err)
	}
	if j2 = waitDone(t, s, j2.ID); j2.Status != StatusDone {
		t.Fatalf("job after a failed one: status = %s (%q)", j2.Status, j2.Error)
	}
}

func TestServeWatchdogCancelsStuckJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, JobTimeout: 30 * time.Millisecond})
	// The hook wedges until the watchdog fires; the run then sees a dead
	// context and fails rather than holding the worker forever.
	s.testHook = func(ctx context.Context, _ *Submission) { <-ctx.Done() }
	j, err := s.Submit(&Submission{Traces: uploads(t, conflictSet())})
	if err != nil {
		t.Fatal(err)
	}
	j = waitDone(t, s, j.ID)
	if j.Status != StatusFailed {
		t.Fatalf("status = %s (error %q), want failed", j.Status, j.Error)
	}
	if !strings.Contains(j.Error, "deadline exceeded") {
		t.Fatalf("error = %q, want a deadline-exceeded chain", j.Error)
	}
}

// TestServeDrainFinishesInFlight pins the SIGTERM semantics: draining
// refuses new submissions while the in-flight job runs to completion.
func TestServeDrainFinishesInFlight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	s.testHook = func(ctx context.Context, _ *Submission) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	sub := &Submission{Traces: uploads(t, conflictSet())}
	j, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s.BeginDrain()
	if _, err := s.Submit(sub); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	jj, ok := s.Job(j.ID)
	if !ok || jj.Status != StatusDone {
		t.Fatalf("in-flight job after drain: status = %s (%q)", jj.Status, jj.Error)
	}
}

// Drain closes the queue while several goroutines submit: every admitted
// job is done once Drain returns, and every other submission is refused
// with ErrOverloaded or ErrDraining, never sent on the closed queue.
func TestServeDrainDuringSubmits(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueBudget: 4})
	sub := &Submission{Traces: uploads(t, conflictSet())}
	var (
		mu       sync.Mutex
		admitted []string
		wg       sync.WaitGroup
	)
	busy := make(chan struct{})
	var once sync.Once
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, err := s.Submit(sub)
				switch {
				case err == nil:
					mu.Lock()
					admitted = append(admitted, j.ID)
					if len(admitted) >= 8 {
						once.Do(func() { close(busy) })
					}
					mu.Unlock()
				case errors.Is(err, ErrDraining):
					return
				case !errors.Is(err, ErrOverloaded):
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	<-busy
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for _, id := range admitted {
		if j, _ := s.Job(id); j.Status != StatusDone {
			t.Errorf("admitted job %s after drain: status = %s (%q)", id, j.Status, j.Error)
		}
	}
}

func TestParseSubmissionRejectsHostileShapes(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"both", `{"trace_dir":"x","traces":[{"rank":0,"data":"AA=="}]}`},
		{"unknown field", `{"trace_dir":"x","bogus":1}`},
		{"trailing", `{"trace_dir":"x"} junk`},
		{"negative rank", `{"traces":[{"rank":-1,"data":"AA=="}]}`},
		{"huge rank", `{"traces":[{"rank":1000000,"data":"AA=="}]}`},
		{"duplicate rank", `{"traces":[{"rank":0,"data":"AA=="},{"rank":0,"data":"AA=="}]}`},
		{"empty data", `{"traces":[{"rank":0,"data":""}]}`},
		{"not json", `put get store`},
	}
	for _, tc := range cases {
		if _, err := ParseSubmission([]byte(tc.body)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.body)
		}
	}
}

// TestLoadGoldenNotes pins the notes and per-rank event counts an upload
// job's load produces for each kind of damage: a truncated upload, an
// upload whose header names another rank, garbage bytes, and a missing
// rank.
func TestLoadGoldenNotes(t *testing.T) {
	ups := func() []RankUpload { return uploads(t, conflictSet()) }
	cases := []struct {
		name   string
		traces func() []RankUpload
		notes  []string
		events []int
	}{
		{"truncated", func() []RankUpload {
			u := ups()
			u[0].Data = u[0].Data[:len(u[0].Data)/2]
			return u
		}, []string{"rank 0 upload: truncated, salvaged 1-event prefix (event 1 undecodable: EOF)"}, []int{1, 2}},
		{"other rank", func() []RankUpload {
			u := ups()
			u[1].Data = u[0].Data
			return u
		}, []string{"rank 1 upload: header claims rank 0; ignored", "rank 1: no events recovered"}, []int{4, 0}},
		{"garbage", func() []RankUpload {
			u := ups()
			u[1].Data = []byte("garbage")
			return u
		}, []string{"rank 1 upload: lost entirely: trace: bad magic", "rank 1: no events recovered"}, []int{4, 0}},
		{"missing rank", func() []RankUpload {
			return ups()[1:]
		}, []string{"rank 0: no events recovered"}, []int{0, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub := &Submission{Traces: tc.traces()}
			set, notes, err := sub.load(obs.Scope{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(notes, tc.notes) {
				t.Errorf("notes:\n%q\nwant:\n%q", notes, tc.notes)
			}
			got := make([]int, set.Ranks())
			for r, tr := range set.Traces {
				got[r] = len(tr.Events)
			}
			if !reflect.DeepEqual(got, tc.events) {
				t.Errorf("events per rank = %#v, want %#v", got, tc.events)
			}
		})
	}
}

// A strict job reads as any other and fails on the first note.
func TestLoadStrictFailsOnFirstNote(t *testing.T) {
	ups := uploads(t, conflictSet())
	ups[0].Data = ups[0].Data[:len(ups[0].Data)/2]
	sub := &Submission{Traces: ups, Strict: true}
	const want = "serve: strict job: rank 0 upload: truncated, salvaged 1-event prefix (event 1 undecodable: EOF)"
	if _, _, err := sub.load(obs.Scope{}); err == nil || err.Error() != want {
		t.Fatalf("strict load: err = %v, want %q", err, want)
	}
}
