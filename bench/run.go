package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/obs/tracing"
	"repro/internal/trace"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	measure  time.Duration // length of the timed phase; it always runs whole passes, at least one
	rounds   int           // set-up rounds; setup_s is their median
	trace    bool          // run the traced phase and report per-layer metrics
	out      string        // scratch directory; trace directories below it are removed at exit
}

// bench is a workload set up for measuring.
type bench struct {
	cfg        config
	inputs     []*input // one pass, in build order
	runProgram bool     // each job runs the program before analysing it
	rng        *rand.Rand
	work       string // this run's trace directories

	setup  []time.Duration
	oracle time.Duration
	sha    string

	attempted, failed int
	failures          []string // the first few, for the log

	samples []metrics.Sample
}

// setUp generates the workload's inputs and warms up, cfg.rounds times
// from scratch, then computes the oracle. The first round is timed from
// process start.
func setUp(cfg config, start time.Time) (_ *bench, err error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.out, "work-")
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, work: work, rng: rand.New(rand.NewSource(cfg.seed))}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	type warm struct {
		input int
		rep   *core.Report
		err   error
	}
	var warmed []warm
	prev := ""
	for r := 0; r < cfg.rounds; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = start
		}
		dir := filepath.Join(work, "round"+strconv.Itoa(r))
		inputs, runProgram, err := buildInputs(cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		for i, in := range inputs {
			in.dir = filepath.Join(dir, strconv.Itoa(i))
			if runProgram {
				continue
			}
			if err := produce(in); err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
		}
		for i, in := range inputs {
			rep, err := job(in, runProgram)
			warmed = append(warmed, warm{i, rep, err})
		}
		b.setup = append(b.setup, time.Since(t0))
		b.inputs, b.runProgram = inputs, runProgram
		if prev != "" {
			if err := os.RemoveAll(prev); err != nil {
				return nil, err
			}
		}
		prev = dir
	}
	if b.sha, err = hashInputs(b.inputs); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := computeOracle(b.inputs); err != nil {
		return nil, err
	}
	b.oracle = time.Since(t0)
	// Every round builds the same inputs from the seed, so the warm-up
	// reports are checked against the final round's answers.
	for _, w := range warmed {
		b.check(b.inputs[w.input], w.rep, w.err)
	}
	return b, nil
}

// close removes the run's trace directories.
func (b *bench) close() error { return os.RemoveAll(b.work) }

// hashInputs is a sha256 over every input's name and trace files, so two
// runs can show they measured the same inputs.
func hashInputs(inputs []*input) (string, error) {
	h := sha256.New()
	for _, in := range inputs {
		io.WriteString(h, in.name)
		entries, err := os.ReadDir(in.dir)
		if err != nil {
			return "", err
		}
		for _, e := range entries { // sorted by name
			data, err := os.ReadFile(filepath.Join(in.dir, e.Name()))
			if err != nil {
				return "", err
			}
			io.WriteString(h, e.Name())
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// computeOracle records, for every input that must be detected, the
// cross-process signatures the all-pairs checker finds on its trace.
func computeOracle(inputs []*input) error {
	for _, in := range inputs {
		if in.want.clean {
			continue
		}
		set, err := trace.ReadDir(in.dir)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", in.name, err)
		}
		q, err := baseline.QuadraticAnalyze(set)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", in.name, err)
		}
		in.want.cross = crossSignatures(q)
	}
	return nil
}

// check counts one attempted job and reports whether it succeeded with
// the right verdict.
func (b *bench) check(in *input, rep *core.Report, err error) bool {
	b.attempted++
	if err == nil {
		err = in.want.check(rep)
	}
	if err == nil {
		return true
	}
	b.failed++
	if len(b.failures) < 5 {
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", in.name, err))
	}
	return false
}

// order is one pass's visiting order, shuffled by the seed.
func (b *bench) order() []*input {
	out := make([]*input, len(b.inputs))
	for i, j := range b.rng.Perm(len(b.inputs)) {
		out[i] = b.inputs[j]
	}
	return out
}

// runtimeStats are cumulative runtime counters read without stopping the
// world.
type runtimeStats struct {
	allocBytes      uint64
	gcCycles        uint64
	gcCPU, totalCPU float64
}

// readRuntime reads the counters into b's sample buffer, which is reused
// so that reading allocates nothing.
func (b *bench) readRuntime() runtimeStats {
	if b.samples == nil {
		b.samples = []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
		}
	}
	metrics.Read(b.samples)
	return runtimeStats{
		allocBytes: b.samples[0].Value.Uint64(),
		gcCycles:   b.samples[1].Value.Uint64(),
		gcCPU:      b.samples[2].Value.Float64(),
		totalCPU:   b.samples[3].Value.Float64(),
	}
}

// timedPhase is what the untraced phase measured.
type timedPhase struct {
	passes  int
	times   []time.Duration // one per job
	events  int             // trace events analysed
	alloc   uint64          // heap bytes allocated inside jobs
	peaks   []float64       // peak RSS of each pass, MB
	runtime [2]runtimeStats // before and after
}

// timed runs whole passes until cfg.measure has elapsed, timing each job
// alone: the verdict check and the counter reads sit outside it.
func (b *bench) timed() (*timedPhase, error) {
	// Hand set-up's and the oracle's memory back first, so that the peak
	// RSS of a pass is the jobs' own.
	debug.FreeOSMemory()
	ph := &timedPhase{}
	ph.runtime[0] = b.readRuntime()
	start := time.Now()
	for ph.passes == 0 || time.Since(start) < b.cfg.measure {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		for _, in := range b.order() {
			a0 := b.readRuntime().allocBytes
			t0 := time.Now()
			rep, err := job(in, b.runProgram)
			ph.times = append(ph.times, time.Since(t0))
			ph.alloc += b.readRuntime().allocBytes - a0
			if b.check(in, rep, err) {
				ph.events += rep.EventsAnalyzed
			}
		}
		peak, err := peakRSS()
		if err != nil {
			return nil, err
		}
		ph.peaks = append(ph.peaks, peak)
		ph.passes++
	}
	ph.runtime[1] = b.readRuntime()
	return ph, nil
}

// tracedPhase is what the traced phase recorded.
type tracedPhase struct {
	spans       *spans
	untraced    []time.Duration // jobs run between the traced passes
	jobs        int             // traced jobs
	events      int             // trace events analysed by traced jobs
	bytes       int64           // trace file bytes read by traced jobs
	regions     int
	epochs      int
	violations  int // distinct, as reported
	occurrences int // before deduplication
	profiled    int // profiled runs
	emitted     int // events the profiler emitted over those runs
}

// traced measures the layers in passes, each a quarter as many as the
// timed phase ran (at least one). Production passes run every input's
// program natively and then under the profiler with the trace written:
// set-up's work on the analysis-only workloads, part of every job on the
// others, and the pair Figure 8's overhead compares. Then job passes run
// every input traced and untraced, so traced jobs are compared with
// untraced ones run at the same time.
func (b *bench) traced(timedPasses int) (*tracedPhase, error) {
	tp := &tracedPhase{spans: newSpans()}
	s := tp.spans
	produce := func(in *input) error {
		n, err := tracedProduce(in, s)
		tp.profiled++
		tp.emitted += n
		return err
	}
	passes := (timedPasses + 3) / 4
	for pass := 0; pass < passes; pass++ {
		for _, in := range b.order() {
			s.job++
			err := s.do("mpi.run", func() error { return nativeRun(in) })
			if err == nil {
				err = s.do("produce", func() error { return produce(in) })
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
		}
	}
	untraced := func(in *input) {
		t0 := time.Now()
		rep, err := job(in, b.runProgram)
		tp.untraced = append(tp.untraced, time.Since(t0))
		b.check(in, rep, err)
	}
	traced := func(in *input) error {
		s.job++
		var rep *core.Report
		err := s.do("job", func() error {
			if b.runProgram {
				if err := produce(in); err != nil {
					return err
				}
			}
			var err error
			rep, err = tracedAnalysis(in, s)
			return err
		})
		tp.jobs++
		if !b.check(in, rep, err) {
			return nil
		}
		tp.events += rep.EventsAnalyzed
		tp.regions += rep.Regions
		tp.epochs += rep.EpochsChecked
		tp.violations += len(rep.Violations)
		for _, v := range rep.Violations {
			tp.occurrences += v.Count
		}
		n, err := dirBytes(in.dir)
		tp.bytes += n
		return err
	}
	runtime.GC() // the production passes' garbage is not the jobs' cost
	for pass := 0; pass < passes; pass++ {
		for i, in := range b.order() {
			// Each traced job is paired with an untraced job of the same
			// input, the two taking turns at going first, so that drift in
			// the machine's speed and the order within a pair cancel out.
			if i%2 == 1 {
				untraced(in)
			}
			if err := traced(in); err != nil {
				return nil, err
			}
			if i%2 == 0 {
				untraced(in)
			}
		}
	}
	return tp, nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// writeChromeTrace writes the traced phase's spans as a Chrome trace
// (loadable in Perfetto) after checking the export is well formed.
func writeChromeTrace(path, workload string, list []span) error {
	rec := tracing.New()
	for _, sp := range list {
		rec.AddSpanAt("bench "+workload, "jobs", sp.name, sp.start.Microseconds(),
			(sp.end - sp.start).Microseconds(), "job", strconv.Itoa(sp.job))
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		return err
	}
	if _, err := tracing.ValidateChromeTrace(buf.Bytes()); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
