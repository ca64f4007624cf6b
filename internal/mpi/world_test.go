package mpi

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/trace"
)

// recordingHook collects all events and allocations, assigning per-rank
// sequence numbers the way the profiler does.
type recordingHook struct {
	mu     sync.Mutex
	seq    map[int32]int64
	evs    []trace.Event
	allocs []string
}

func newRecordingHook() *recordingHook {
	return &recordingHook{seq: make(map[int32]int64)}
}

func (h *recordingHook) MPICall(p *Proc, ev trace.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ev.Seq = h.seq[ev.Rank]
	h.seq[ev.Rank]++
	h.evs = append(h.evs, ev)
}

func (h *recordingHook) BufferAllocated(p *Proc, b *memory.Buffer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.allocs = append(h.allocs, b.Name())
}

func (h *recordingHook) eventsOf(rank int32, kind trace.Kind) []trace.Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []trace.Event
	for _, ev := range h.evs {
		if ev.Rank == rank && (kind == trace.KindInvalid || ev.Kind == kind) {
			out = append(out, ev)
		}
	}
	return out
}

func TestRunBasics(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	err := Run(4, Options{}, func(p *Proc) error {
		mu.Lock()
		seen[p.Rank()] = true
		mu.Unlock()
		if p.Size() != 4 {
			t.Errorf("Size = %d", p.Size())
		}
		if p.CommWorld().Size() != 4 || p.CommWorld().ID() != 0 {
			t.Error("world comm wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Errorf("ranks seen: %v", seen)
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, Options{}, func(*Proc) error { return nil }); err == nil {
		t.Error("size 0 must error")
	}
}

// A negative timeout is rejected before any rank starts, rather than
// arming a watchdog that has already fired.
func TestRunRejectsNegativeTimeout(t *testing.T) {
	var ran atomic.Bool
	err := Run(2, Options{Timeout: -5 * time.Second}, func(*Proc) error {
		ran.Store(true)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Errorf("err = %v, want a timeout error", err)
	}
	if ran.Load() {
		t.Error("body ran despite the negative timeout")
	}
}

func TestRunCollectsErrors(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(3, Options{}, func(p *Proc) error {
		if p.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		if p.Rank() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v", err)
	}
}

func TestRunUsageErrorSurfaces(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(p.CommWorld(), p.Alloc(4, "b"), 0, 1, Int32, 99, 0) // bad dest
		}
		return nil
	})
	var ue *UsageError
	if !errors.As(err, &ue) || ue.Rank != 0 || ue.Call != "Send" {
		t.Errorf("err = %v", err)
	}
}

func TestRunTimeoutOnDeadlock(t *testing.T) {
	start := time.Now()
	err := Run(2, Options{Timeout: 200 * time.Millisecond}, func(p *Proc) error {
		if p.Rank() == 0 {
			// Recv that never matches: deadlock.
			p.Recv(p.CommWorld(), p.Alloc(4, "b"), 0, 1, Int32, 1, 7)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout did not fire promptly")
	}
	// The watchdog names the blocked call and the stuck rank.
	if !strings.Contains(err.Error(), "rank 0: blocked in Recv") {
		t.Errorf("stuck diagnostics missing: %v", err)
	}
}

func TestAllocNotifiesHook(t *testing.T) {
	h := newRecordingHook()
	err := Run(1, Options{Hook: h}, func(p *Proc) error {
		p.Alloc(16, "window")
		p.AllocFloat64(4, "grid")
		p.AllocInt32(2, "flags")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"window", "grid", "flags"}
	if len(h.allocs) != 3 {
		t.Fatalf("allocs = %v", h.allocs)
	}
	for i, name := range want {
		if h.allocs[i] != name {
			t.Errorf("alloc %d = %q, want %q", i, h.allocs[i], name)
		}
	}
}

func TestEmitCapturesCallerLocation(t *testing.T) {
	h := newRecordingHook()
	err := Run(2, Options{Hook: h}, func(p *Proc) error {
		p.Barrier(p.CommWorld())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := h.eventsOf(0, trace.KindBarrier)
	if len(evs) != 1 {
		t.Fatalf("barrier events: %d", len(evs))
	}
	if !strings.HasSuffix(evs[0].File, "world_test.go") || evs[0].Line == 0 {
		t.Errorf("location = %s:%d", evs[0].File, evs[0].Line)
	}
}

func TestWithCallDepth(t *testing.T) {
	h := newRecordingHook()
	wrapper := func(p *Proc) {
		p.WithCallDepth(1).Barrier(p.CommWorld())
	}
	err := Run(2, Options{Hook: h}, func(p *Proc) error {
		wrapper(p) // the logged location should be THIS line
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := h.eventsOf(1, trace.KindBarrier)
	if len(evs) != 1 || !strings.HasSuffix(evs[0].File, "world_test.go") {
		t.Fatalf("events: %v", evs)
	}
}
