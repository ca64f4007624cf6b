package mpi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/trace"
)

// The lock rule: a buffer's accessors take its mutex only once its owner
// has shared it, which the simulator does when the buffer backs a window
// or is queued as a one-sided origin or result buffer. Run under -race,
// these tests fail if another rank's goroutine can reach a buffer's bytes
// while its owner still touches them without the lock.

// TestWindowSharedBeforeRemotePuts: a buffer stored to privately, then
// exposed by Win_create, is hit by Puts from two ranks under shared locks
// while its owner loads it.
func TestWindowSharedBeforeRemotePuts(t *testing.T) {
	const n, rounds = 64, 20
	err := Run(3, Options{}, func(p *Proc) error {
		buf := p.AllocFloat64(n, "win")
		for i := 0; i < n; i++ {
			buf.SetFloat64(uint64(i)*8, -1)
		}
		w := p.WinCreate(buf, 8, p.CommWorld())
		if p.Rank() == 0 {
			var sum float64
			for r := 0; r < rounds; r++ {
				for i := 0; i < n; i++ {
					sum += buf.Float64At(uint64(i) * 8)
				}
			}
			_ = sum // any mix of old and new values is legal: the race is the program's
		} else {
			src := p.AllocFloat64(n, "src")
			for r := 0; r < rounds; r++ {
				for i := 0; i < n; i++ {
					src.SetFloat64(uint64(i)*8, float64(p.Rank()))
				}
				w.Lock(trace.LockShared, 0)
				w.Put(src, 0, n, Float64, 0, 0, n, Float64)
				w.Unlock(0)
			}
		}
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				if v := buf.Float64At(uint64(i) * 8); v != 1 && v != 2 {
					t.Errorf("word %d = %v after both ranks' Puts, want 1 or 2", i, v)
				}
			}
		}
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOriginSharedWhenQueued: buffers stored to privately, then queued as
// a Put origin and as a Get origin, are read and written at the fence by
// whichever rank arrives last, and loaded and stored by their owners
// after it, under the lock. The fence's rendezvous already orders the
// last arriver's accesses after the owners' private ones, so this checks
// that the change of mode is race-free; TestWindowSharedBeforeRemotePuts
// is the one that fails when a shared buffer is left unmarked.
func TestOriginSharedWhenQueued(t *testing.T) {
	const n = 32
	err := Run(4, Options{}, func(p *Proc) error {
		w, win := p.WinAllocate(2*n*8, 8, p.CommWorld(), "win")
		for i := 0; i < 2*n; i++ {
			win.SetFloat64(uint64(i)*8, float64(100*p.Rank()+i))
		}
		put, get := p.AllocFloat64(n, "put"), p.AllocFloat64(n, "get")
		for i := 0; i < n; i++ {
			put.SetFloat64(uint64(i)*8, float64(-p.Rank()))
			get.SetFloat64(uint64(i)*8, 0)
		}
		peer := (p.Rank() + 1) % p.Size()
		w.Fence(AssertNone)
		w.Put(put, 0, n, Float64, peer, 0, n, Float64)
		w.Get(get, 0, n, Float64, peer, n, n, Float64)
		w.Fence(AssertNone)
		for i := 0; i < n; i++ {
			if v, want := get.Float64At(uint64(i)*8), float64(100*peer+n+i); v != want {
				t.Errorf("rank %d: got word %d = %v, want %v", p.Rank(), i, v, want)
			}
			if v, want := win.Float64At(uint64(i)*8), float64(-((p.Rank() + p.Size() - 1) % p.Size())); v != want {
				t.Errorf("rank %d: window word %d = %v, want %v", p.Rank(), i, v, want)
			}
		}
		put.SetFloat64(0, 1) // the owner stores again, now under the lock
		w.Fence(AssertNone)
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForeignBufferIsUsageError: a rank may share only its own buffers,
// so that the owner is the only writer of the mark. Passing another rank's
// buffer to Win_create or as a Put origin fails by name.
func TestForeignBufferIsUsageError(t *testing.T) {
	for _, call := range []string{"Win_create", "Put"} {
		var theirs *memory.Buffer // rank 1's buffer, handed over before the Barrier
		err := Run(2, Options{}, func(p *Proc) error {
			mine := p.AllocFloat64(4, "mine")
			if p.Rank() == 1 {
				theirs = mine
			}
			p.Barrier(p.CommWorld())
			exposed := mine
			if call == "Win_create" && p.Rank() == 0 {
				exposed = theirs
			}
			w := p.WinCreate(exposed, 8, p.CommWorld())
			w.Fence(AssertNone)
			if call == "Put" && p.Rank() == 0 {
				w.Put(theirs, 0, 1, Float64, 1, 0, 1, Float64)
			}
			w.Fence(AssertNone)
			w.Free()
			return nil
		})
		var ue *UsageError
		if !errors.As(err, &ue) || ue.Call != call || ue.Rank != 0 || !strings.Contains(ue.Msg, "another rank") {
			t.Errorf("%s with rank 1's buffer: err = %v, want a usage error from %s naming another rank", call, err, call)
		}
	}
}
