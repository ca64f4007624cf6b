package mcchecker

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mpi"
)

func buggyBody(p *mpi.Proc) error {
	win := p.Alloc(64, "win")
	w := p.WinCreate(win, 1, p.CommWorld())
	w.Fence(mpi.AssertNone)
	if p.Rank() == 0 {
		buf := p.Alloc(8, "buf")
		w.Put(buf, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
		buf.SetInt64(0, 1) // bug
	}
	w.Fence(mpi.AssertNone)
	w.Free()
	return nil
}

func TestRunDetects(t *testing.T) {
	rep, err := Run(Config{Ranks: 2}, buggyBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 {
		t.Fatalf("errors = %d:\n%s", len(rep.Errors()), rep)
	}
	if rep.Errors()[0].Class != WithinEpoch {
		t.Error("wrong class")
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{}, buggyBody); err == nil {
		t.Error("zero ranks must error")
	}
}

func TestRunCollectStats(t *testing.T) {
	rep, err := Run(Config{Ranks: 2, CollectStats: true}, buggyBody)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats == nil {
		t.Fatal("CollectStats did not attach a snapshot")
	}
	if got := rep.Stats.CounterValue("mcchecker_analysis_events_total"); got != int64(rep.EventsAnalyzed) {
		t.Errorf("stats events = %d, report says %d", got, rep.EventsAnalyzed)
	}
	if rep.Stats.Span("mcchecker_phase_seconds", "phase", "match").Count != 1 {
		t.Error("phase spans missing from snapshot")
	}
	// Off by default.
	plain, err := Run(Config{Ranks: 2}, buggyBody)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats != nil {
		t.Error("stats attached without CollectStats")
	}
}

func TestRunOnlineCollectStats(t *testing.T) {
	rep, err := RunOnline(Config{Ranks: 2, CollectStats: true}, buggyBody, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats == nil {
		t.Fatal("CollectStats did not attach a snapshot")
	}
	if rep.Stats.CounterValue("mcchecker_stream_slabs_total") == 0 {
		t.Error("stream slab metrics missing from online snapshot")
	}
}

func TestTraceDirAndOfflineAnalysis(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	set, err := Trace(Config{Ranks: 2, TraceDir: dir}, buggyBody)
	if err != nil {
		t.Fatal(err)
	}
	if set.TotalEvents() == 0 {
		t.Fatal("no events collected")
	}
	rep, err := AnalyzeTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 {
		t.Fatalf("offline analysis:\n%s", rep)
	}
	// Check() on the in-memory set agrees.
	rep2, err := Check(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Errors()) != 1 {
		t.Error("Check disagrees with AnalyzeTraceDir")
	}
}

func TestIntraEpochOnlyConfig(t *testing.T) {
	crossBug := func(p *mpi.Proc) error {
		win := p.Alloc(64, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			buf := p.Alloc(8, "buf")
			w.Lock(mpi.LockShared, 1)
			w.Put(buf, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
			w.Unlock(1)
		} else {
			win.SetInt64(0, 5)
		}
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	}
	rep, err := Run(Config{Ranks: 2, IntraEpochOnly: true}, crossBug)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("SyncChecker mode must miss the cross-process bug:\n%s", rep)
	}
	rep, err = Run(Config{Ranks: 2}, crossBug)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) == 0 {
		t.Error("full mode must find it")
	}
}

func TestSelectiveInstrumentationConfig(t *testing.T) {
	// Omitting the relevant buffer from Config.Relevant hides the local
	// store, so the within-epoch bug disappears from the trace — the
	// false-negative mode ST-Analyzer's conservativeness guards against.
	rep, err := Run(Config{Ranks: 2, Relevant: []string{"win"}}, buggyBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("expected no detection with buf uninstrumented:\n%s", rep)
	}
	rep, err = Run(Config{Ranks: 2, Relevant: []string{"win", "buf"}}, buggyBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 {
		t.Errorf("selective instrumentation with the right set must detect:\n%s", rep)
	}
}

func TestRunOnline(t *testing.T) {
	fired := 0
	rep, err := RunOnline(Config{Ranks: 2}, buggyBody, func(v *Violation) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 || fired != 1 {
		t.Errorf("errors = %d, callbacks = %d:\n%s", len(rep.Errors()), fired, rep)
	}
	// Online and batch agree.
	batch, err := Run(Config{Ranks: 2}, buggyBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Errors()) != len(rep.Errors()) {
		t.Error("online and batch disagree")
	}
	if _, err := RunOnline(Config{}, buggyBody, nil); err == nil {
		t.Error("zero ranks must error")
	}
	if _, err := RunOnline(Config{Ranks: 2, TraceDir: t.TempDir()}, buggyBody, nil); err == nil {
		t.Error("a trace directory must error: the online path writes no trace files")
	}
}

func TestStaticAnalyzeFacade(t *testing.T) {
	dir := t.TempDir()
	src := `package demo
import "repro/internal/mpi"
func body(p *mpi.Proc) error {
	win := p.Alloc(64, "win")
	w := p.WinCreate(win, 1, p.CommWorld())
	w.Fence(0)
	buf := p.Alloc(8, "buf")
	w.Put(buf, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
	w.Fence(0)
	return nil
}
`
	if err := os.WriteFile(filepath.Join(dir, "demo.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := StaticAnalyze(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := rep.BufferNames()
	if len(names) != 2 || names[0] != "buf" || names[1] != "win" {
		t.Errorf("BufferNames = %v", names)
	}
}

// TestStaticThenRunPipeline wires all three components end to end:
// ST-Analyzer output feeds the Profiler's relevance set, and DN-Analyzer
// still finds the bug.
func TestStaticThenRunPipeline(t *testing.T) {
	dir := t.TempDir()
	src := `package demo
import "repro/internal/mpi"
func Buggy(p *mpi.Proc) error {
	win := p.Alloc(64, "win")
	w := p.WinCreate(win, 1, p.CommWorld())
	w.Fence(0)
	if p.Rank() == 0 {
		buf := p.Alloc(8, "buf")
		w.Put(buf, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
		buf.SetInt64(0, 1)
	}
	w.Fence(0)
	w.Free()
	return nil
}
`
	if err := os.WriteFile(filepath.Join(dir, "demo.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	static, err := StaticAnalyze(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Ranks: 2, Relevant: static.BufferNames()}, buggyBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 {
		t.Errorf("pipeline lost the bug:\n%s", rep)
	}
}
