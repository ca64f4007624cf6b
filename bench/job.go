package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// job checks one input the way a user does: on the app workloads it runs
// the program under the profiler and writes the trace; then it reads the
// trace directory, analyses it and renders the report.
func job(in *input, runProgram bool) (*core.Report, error) {
	if runProgram {
		if err := produce(in); err != nil {
			return nil, err
		}
	}
	set, err := trace.ReadDir(in.dir)
	if err != nil {
		return nil, err
	}
	rep, err := core.AnalyzeWith(set, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	_, _ = io.WriteString(io.Discard, rep.String()) // cannot fail
	return rep, nil
}

// produce runs the input's program under the profiler and writes its
// trace directory.
func produce(in *input) error {
	sink := trace.NewMemorySink()
	if err := mpi.Run(in.ranks, mpi.Options{Hook: profiler.New(sink, in.rel)}, in.body); err != nil {
		return fmt.Errorf("profiled run: %w", err)
	}
	return trace.WriteDir(in.dir, sink.Set())
}

// span is one timed call of the traced phase. Spans of one job share the
// job number; parent indexes the enclosing span, -1 for a root.
type span struct {
	job        int
	name       string
	parent     int
	start, end time.Duration // since the traced phase began
}

// spans records spans in memory; they are turned into metrics and a Chrome
// trace after the traced phase.
type spans struct {
	t0    time.Time
	job   int
	list  []span
	stack []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string) int {
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.list = append(s.list, span{job: s.job, name: name, parent: parent, start: time.Since(s.t0)})
	s.stack = append(s.stack, len(s.list)-1)
	return len(s.list) - 1
}

func (s *spans) end(i int) {
	s.list[i].end = time.Since(s.t0)
	s.stack = s.stack[:len(s.stack)-1]
}

// do runs f inside a span.
func (s *spans) do(name string, f func() error) error {
	i := s.begin(name)
	err := f()
	s.end(i)
	return err
}

// nativeRun runs the input's program without the profiler: the baseline
// of Figure 8's overhead.
func nativeRun(in *input) error {
	if err := mpi.Run(in.ranks, mpi.Options{}, in.body); err != nil {
		return fmt.Errorf("native run: %w", err)
	}
	return nil
}

// tracedProduce is produce with a span around each call. It returns the
// number of events the profiler emitted.
func tracedProduce(in *input, s *spans) (events int, err error) {
	sink := trace.NewMemorySink()
	err = s.do("profiler.run", func() error {
		return mpi.Run(in.ranks, mpi.Options{Hook: profiler.New(sink, in.rel)}, in.body)
	})
	if err != nil {
		return 0, fmt.Errorf("profiled run: %w", err)
	}
	err = s.do("trace.write", func() error {
		set := sink.Set()
		events = set.TotalEvents()
		return trace.WriteDir(in.dir, set)
	})
	return events, err
}

// tracedAnalysis is the analysis half of job as the public calls behind it,
// each in a span. The caller opens the job span around it.
func tracedAnalysis(in *input, s *spans) (*core.Report, error) {
	var (
		set     *trace.Set
		m       *model.Model
		ms      *match.Matches
		d       *dag.DAG
		epochs  []*core.Epoch
		opEpoch map[trace.ID]*core.Epoch
		intra   *core.Report
		cross   *core.Report
	)
	steps := []struct {
		name string
		f    func() error
	}{
		{"trace.read", func() (err error) { set, err = trace.ReadDir(in.dir); return }},
		{"model.build", func() (err error) { m, err = model.Build(set); return }},
		{"match.run", func() (err error) { ms, err = match.Run(m); return }},
		{"dag.build", func() (err error) { d, err = dag.Build(m, ms); return }},
		{"core.epochs", func() (err error) { epochs, opEpoch, err = core.ExtractEpochs(m); return }},
		{"core.detect_intra", func() (err error) {
			intra, err = core.NewAnalyzer(m, d, epochs, opEpoch, core.Options{IntraEpoch: true}).Run()
			return
		}},
		{"core.detect_cross", func() (err error) {
			cross, err = core.NewAnalyzer(m, d, epochs, opEpoch, core.Options{CrossProcess: true}).Run()
			return
		}},
	}
	for _, st := range steps {
		if err := s.do(st.name, st.f); err != nil {
			return nil, err
		}
	}
	rep := &core.Report{
		Violations:     append(intra.Violations, cross.Violations...),
		EventsAnalyzed: cross.EventsAnalyzed,
		Regions:        cross.Regions,
		EpochsChecked:  intra.EpochsChecked,
	}
	rep.Sort()
	err := s.do("core.render", func() error {
		_, err := io.WriteString(io.Discard, rep.String())
		return err
	})
	return rep, err
}
