package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// Robustness: the analyzer must reject malformed traces with a diagnostic,
// never panic or silently mis-analyze.

func TestAnalyzeRejectsUndefinedDatatype(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, trace.Event{Kind: trace.KindPut, Win: 1, Target: 1,
		OriginAddr: 0x500, OriginType: 999, OriginCount: 1, // undefined type
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1})
	b.Fence(1)
	_, err := Analyze(b.Set())
	if err == nil || !strings.Contains(err.Error(), "datatype") {
		t.Errorf("err = %v", err)
	}
}

func TestAnalyzeRejectsUnknownWindow(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.Add(0, trace.Event{Kind: trace.KindWinFence, Win: 42, Comm: 0})
	b.Add(1, trace.Event{Kind: trace.KindWinFence, Win: 42, Comm: 0})
	_, err := Analyze(b.Set())
	if err == nil {
		t.Error("fence on unknown window must error")
	}
}

func TestAnalyzeRejectsTargetOutOfComm(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, trace.Event{Kind: trace.KindPut, Win: 1, Target: 9, // no rank 9
		OriginAddr: 0x500, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1})
	b.Fence(1)
	_, err := Analyze(b.Set())
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

// TestAnalyzeRejectsRootOutOfComm checks that a rooted collective whose
// root names no rank of its communicator is an error, not a panic, in both
// matchers.
func TestAnalyzeRejectsRootOutOfComm(t *testing.T) {
	for _, kind := range []trace.Kind{trace.KindBcast, trace.KindReduce, trace.KindGather, trace.KindScatter} {
		for _, root := range []int32{2, 7, -1} {
			b := testutil.NewTraceBuilder(2)
			for r := int32(0); r < 2; r++ {
				b.Add(r, trace.Event{Kind: kind, Comm: 0, Peer: root})
			}
			set := b.Set()
			_, err := Analyze(set)
			if err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s root %d: err = %v", kind, root, err)
			}
			m, err := model.Build(set)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := match.RunNaive(m); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s root %d: RunNaive err = %v", kind, root, err)
			}
		}
	}
}

func TestAnalyzeRejectsDanglingUnlock(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Add(0, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1})
	_, err := Analyze(b.Set())
	if err == nil || !strings.Contains(err.Error(), "without lock") {
		t.Errorf("err = %v", err)
	}
}

func TestAnalyzeRejectsCollectiveDeadlockTrace(t *testing.T) {
	// Rank 0 entered a barrier no one else reached (truncated run).
	b := testutil.NewTraceBuilder(3)
	b.Add(0, trace.Event{Kind: trace.KindBarrier, Comm: 0})
	_, err := Analyze(b.Set())
	if err == nil || !strings.Contains(err.Error(), "matched only") {
		t.Errorf("err = %v", err)
	}
}

func TestAnalyzeCorruptedTraceDir(t *testing.T) {
	dir := t.TempDir()
	// One valid file, one corrupted.
	b := testutil.NewTraceBuilder(2)
	b.Barrier()
	set := b.Set()
	if err := trace.WriteDir(dir, set); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, trace.FileName(1)), []byte("MCCTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadDir(dir); err == nil {
		t.Error("corrupted trace file must error")
	}

	// Truncated valid file.
	data, err := os.ReadFile(filepath.Join(dir, trace.FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, trace.FileName(0)), data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadDir(dir); err == nil {
		t.Error("truncated trace file must error")
	}
}

func TestAnalyzeMissingRankFile(t *testing.T) {
	dir := t.TempDir()
	b := testutil.NewTraceBuilder(3)
	b.Barrier()
	if err := trace.WriteDir(dir, b.Set()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, trace.FileName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadDir(dir); err == nil {
		t.Error("missing rank file must error")
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	// A trace with zero events per rank is valid and clean.
	rep, err := Analyze(trace.NewSet(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 || rep.Regions != 1 {
		t.Errorf("empty trace: %s", rep)
	}
}

func TestAnalyzeSingleRank(t *testing.T) {
	// Single-rank programs exercise the degenerate DAG.
	b := testutil.NewTraceBuilder(1)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, trace.Event{Kind: trace.KindGet, Win: 1, Target: 0,
		OriginAddr: 0x500, OriginType: trace.TypeInt32, OriginCount: 1,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1, File: "a.go", Line: 1})
	b.Add(0, trace.Event{Kind: trace.KindLoad, Addr: 0x500, Size: 4, File: "a.go", Line: 2})
	b.Fence(1)
	rep, err := Analyze(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 {
		t.Errorf("self-targeted get bug not found:\n%s", rep)
	}
}
