package core

import (
	"path/filepath"
	"testing"

	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// runAndAnalyze executes a simulated MPI program under the profiler and
// analyzes the collected trace — the full MC-Checker pipeline.
func runAndAnalyze(t *testing.T, n int, body func(p *mpi.Proc) error) *Report {
	t.Helper()
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	if err := mpi.Run(n, mpi.Options{Hook: pr}, body); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(sink.Set())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEndToEndCleanProgram(t *testing.T) {
	rep := runAndAnalyze(t, 4, func(p *mpi.Proc) error {
		win := p.Alloc(64, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(mpi.AssertNone)
		src := p.Alloc(8, "src")
		src.SetFloat64(0, float64(p.Rank()))
		// Each rank puts to a disjoint slot of rank 0's window.
		w.Put(src, 0, 1, mpi.Float64, 0, uint64(p.Rank())*8, 1, mpi.Float64)
		w.Fence(mpi.AssertNone)
		if p.Rank() == 0 {
			_ = w.LocalBuffer().Float64At(16)
		}
		w.Fence(mpi.AssertNone)
		w.Free()
		return nil
	})
	if len(rep.Violations) != 0 {
		t.Errorf("clean program flagged:\n%s", rep)
	}
}

func TestEndToEndFig2aBug(t *testing.T) {
	rep := runAndAnalyze(t, 2, func(p *mpi.Proc) error {
		win := p.Alloc(64, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(mpi.AssertNone)
		if p.Rank() == 0 {
			buf := p.Alloc(8, "buf")
			buf.SetInt64(0, 7)
			w.Put(buf, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
			buf.SetInt64(0, 9) // BUG: store before the epoch closes
		}
		w.Fence(mpi.AssertNone)
		w.Free()
		return nil
	})
	errs := rep.Errors()
	if len(errs) != 1 {
		t.Fatalf("errors = %d:\n%s", len(errs), rep)
	}
	v := errs[0]
	if v.Class != WithinEpoch || v.A.Kind != trace.KindPut || v.B.Kind != trace.KindStore {
		t.Errorf("violation = %v", v)
	}
	if filepath.Base(v.B.File) != "endtoend_test.go" || v.B.Line == 0 {
		t.Errorf("diagnostics lack real location: %s", v.B.Loc())
	}
}

func TestEndToEndFig2dBug(t *testing.T) {
	rep := runAndAnalyze(t, 2, func(p *mpi.Proc) error {
		win := p.Alloc(64, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			w.Lock(trace.LockShared, 1)
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
			w.Unlock(1)
		} else {
			win.SetInt64(0, 42) // BUG: concurrent local store to the window
		}
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	})
	errs := rep.Errors()
	if len(errs) == 0 {
		t.Fatalf("cross-process bug not detected:\n%s", rep)
	}
	found := false
	for _, v := range errs {
		if v.Class == AcrossProcesses {
			found = true
		}
	}
	if !found {
		t.Errorf("no across-processes violation:\n%s", rep)
	}
}

func TestEndToEndOrderedBySendRecv(t *testing.T) {
	// Same access pattern as Fig 2d, but the store is ordered after the
	// unlock by a send/recv sync: no error.
	rep := runAndAnalyze(t, 2, func(p *mpi.Proc) error {
		win := p.Alloc(64, "win")
		flag := p.Alloc(4, "flag")
		w := p.WinCreate(win, 1, p.CommWorld())
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			w.Lock(trace.LockShared, 1)
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
			w.Unlock(1)
			p.Send(p.CommWorld(), flag, 0, 1, mpi.Int32, 1, 0)
		} else {
			p.Recv(p.CommWorld(), flag, 0, 1, mpi.Int32, 0, 0)
			win.SetInt64(0, 42) // ordered after the Put by the recv
		}
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	})
	if len(rep.Violations) != 0 {
		t.Errorf("ordered program flagged:\n%s", rep)
	}
}

func TestEndToEndTraceFilesRoundTrip(t *testing.T) {
	// Write traces to disk, read them back, analyze: the offline workflow.
	dir := t.TempDir()
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		win := p.Alloc(64, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(mpi.AssertNone)
		if p.Rank() == 0 {
			buf := p.Alloc(8, "buf")
			w.Get(buf, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
			_ = buf.Int64At(0) // BUG: read before fence
		}
		w.Fence(mpi.AssertNone)
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteDir(dir, sink.Set()); err != nil {
		t.Fatal(err)
	}
	set, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 {
		t.Fatalf("errors:\n%s", rep)
	}
	if rep.Errors()[0].A.Kind != trace.KindGet {
		t.Errorf("wrong pair: %v", rep.Errors()[0])
	}
}
