package mpi

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

func TestWinAllocate(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		w, buf := p.WinAllocate(64, 8, p.CommWorld(), "allocwin")
		if buf.Size() != 64 || w.LocalBuffer() != buf {
			t.Error("WinAllocate buffer wrong")
		}
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			src := p.AllocFloat64(1, "src")
			src.SetFloat64(0, 3.25)
			w.Put(src, 0, 1, Float64, 1, 0, 1, Float64)
		}
		w.Fence(AssertNone)
		if p.Rank() == 1 && buf.Float64At(0) != 3.25 {
			t.Errorf("put into allocated window = %v", buf.Float64At(0))
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockAllFlush(t *testing.T) {
	err := Run(3, Options{}, func(p *Proc) error {
		w, buf := p.WinAllocate(8, 8, p.CommWorld(), "law")
		p.Barrier(p.CommWorld())
		w.LockAll()
		if p.Rank() == 0 {
			src := p.AllocFloat64(1, "src")
			for t := 1; t < p.Size(); t++ {
				src.SetFloat64(0, float64(10*t))
				w.Put(src, 0, 1, Float64, t, 0, 1, Float64)
				w.Flush(t) // completes at the target before moving on
				src.SetFloat64(0, 0)
			}
		}
		w.UnlockAll()
		p.Barrier(p.CommWorld())
		if p.Rank() != 0 {
			if got := buf.Float64At(0); got != float64(10*p.Rank()) {
				t.Errorf("rank %d got %v", p.Rank(), got)
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

// Regression: operations on a WinAllocate window must log their own call
// sites, not inherit WinAllocate's extra caller depth.
func TestWinAllocateOpLocations(t *testing.T) {
	h := newRecordingHook()
	err := Run(2, Options{Hook: h}, func(p *Proc) error {
		w, _ := p.WinAllocate(16, 8, p.CommWorld(), "w")
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			src := p.AllocFloat64(1, "src")
			w.Put(src, 0, 1, Float64, 1, 0, 1, Float64)
		}
		w.Fence(AssertNone)
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range h.eventsOf(0, trace.KindPut) {
		if ev.Loc() == "?" || ev.File == "" || !strings.HasSuffix(ev.File, "rma3_test.go") {
			t.Errorf("put location = %s (%s)", ev.Loc(), ev.File)
		}
	}
}

func TestFlushWithoutEpochFails(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		w, _ := p.WinAllocate(8, 8, p.CommWorld(), "w")
		if p.Rank() == 0 {
			w.Flush(1)
		}
		return nil
	})
	var ue *UsageError
	if !errors.As(err, &ue) {
		t.Errorf("err = %v", err)
	}
}

func TestFetchAndOpAtomicCounter(t *testing.T) {
	// The canonical MPI-3 pattern: a shared counter incremented with
	// Fetch_and_op. Every rank must see a distinct old value.
	const n = 8
	const perRank = 10
	var seen [n * perRank]atomic.Bool
	err := Run(n, Options{}, func(p *Proc) error {
		w, buf := p.WinAllocate(8, 8, p.CommWorld(), "counter")
		if p.Rank() == 0 {
			buf.SetInt64(0, 0)
		}
		p.Barrier(p.CommWorld())
		one := p.Alloc(8, "one")
		one.SetInt64(0, 1)
		old := p.Alloc(8, "old")
		for i := 0; i < perRank; i++ {
			w.LockAll()
			w.FetchAndOp(one, 0, old, 0, 0, 0, Int64, trace.OpSum)
			w.UnlockAll()
			got := old.Int64At(0)
			if got < 0 || got >= n*perRank {
				t.Errorf("fetched %d out of range", got)
				continue
			}
			if seen[got].Swap(true) {
				t.Errorf("value %d fetched twice: lost update", got)
			}
		}
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			if total := buf.Int64At(0); total != n*perRank {
				t.Errorf("counter = %d, want %d", total, n*perRank)
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

func TestGetAccumulate(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		w, buf := p.WinAllocate(16, 8, p.CommWorld(), "gac")
		if p.Rank() == 1 {
			buf.SetFloat64(0, 100)
			buf.SetFloat64(8, 200)
		}
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			add := p.AllocFloat64(2, "add")
			add.SetFloat64(0, 1)
			add.SetFloat64(8, 2)
			res := p.AllocFloat64(2, "res")
			w.Lock(trace.LockShared, 1)
			w.GetAccumulate(add, 0, 2, Float64, res, 0, 2, Float64, 1, 0, 2, Float64, trace.OpSum)
			w.Unlock(1)
			if res.Float64At(0) != 100 || res.Float64At(8) != 200 {
				t.Errorf("old values = %v %v", res.Float64At(0), res.Float64At(8))
			}
		}
		p.Barrier(p.CommWorld())
		if p.Rank() == 1 {
			if buf.Float64At(0) != 101 || buf.Float64At(8) != 202 {
				t.Errorf("accumulated = %v %v", buf.Float64At(0), buf.Float64At(8))
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

func TestGetAccumulateDeferred(t *testing.T) {
	// Like Put/Get, fetching atomics complete at the closing sync: the
	// result buffer is stale inside the epoch.
	err := Run(2, Options{}, func(p *Proc) error {
		w, buf := p.WinAllocate(8, 8, p.CommWorld(), "gad")
		if p.Rank() == 1 {
			buf.SetInt64(0, 7)
		}
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			one := p.Alloc(8, "one")
			one.SetInt64(0, 1)
			res := p.Alloc(8, "res")
			res.SetInt64(0, -1)
			w.Lock(trace.LockShared, 1)
			w.FetchAndOp(one, 0, res, 0, 1, 0, Int64, trace.OpSum)
			if got := res.Int64At(0); got != -1 {
				t.Errorf("result delivered eagerly: %d", got)
			}
			w.Unlock(1)
			if got := res.Int64At(0); got != 7 {
				t.Errorf("result after unlock = %d", got)
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

func TestCompareAndSwap(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		w, buf := p.WinAllocate(8, 8, p.CommWorld(), "cas")
		if p.Rank() == 1 {
			buf.SetInt64(0, 5)
		}
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			newVal := p.Alloc(8, "new")
			cmp := p.Alloc(8, "cmp")
			res := p.Alloc(8, "res")
			// Successful CAS: 5 → 9.
			newVal.SetInt64(0, 9)
			cmp.SetInt64(0, 5)
			w.Lock(trace.LockShared, 1)
			w.CompareAndSwap(newVal, 0, cmp, 0, res, 0, 1, 0, Int64)
			w.Unlock(1)
			if res.Int64At(0) != 5 {
				t.Errorf("cas old = %d", res.Int64At(0))
			}
			// Failing CAS: compare 5 again, target is now 9.
			w.Lock(trace.LockShared, 1)
			w.CompareAndSwap(newVal, 0, cmp, 0, res, 0, 1, 0, Int64)
			w.Unlock(1)
			if res.Int64At(0) != 9 {
				t.Errorf("failed cas old = %d", res.Int64At(0))
			}
		}
		p.Barrier(p.CommWorld())
		if p.Rank() == 1 && buf.Int64At(0) != 9 {
			t.Errorf("target = %d, want 9 (second CAS must fail)", buf.Int64At(0))
		}
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockAllStateErrors(t *testing.T) {
	err := Run(1, Options{}, func(p *Proc) error {
		w, _ := p.WinAllocate(8, 8, p.CommWorld(), "w")
		w.UnlockAll()
		return nil
	})
	var ue *UsageError
	if !errors.As(err, &ue) || ue.Call != "Win_unlock_all" {
		t.Errorf("err = %v", err)
	}
	err = Run(1, Options{}, func(p *Proc) error {
		w, _ := p.WinAllocate(8, 8, p.CommWorld(), "w")
		w.LockAll()
		w.LockAll()
		return nil
	})
	if !errors.As(err, &ue) || ue.Call != "Win_lock_all" {
		t.Errorf("err = %v", err)
	}
}

func TestFlushLocalAllowsOriginReuse(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		w, buf := p.WinAllocate(16, 8, p.CommWorld(), "flw")
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			src := p.AllocFloat64(1, "src")
			w.LockAll()
			src.SetFloat64(0, 1)
			w.Put(src, 0, 1, Float64, 1, 0, 1, Float64)
			w.FlushLocal(1)
			src.SetFloat64(0, 2) // legal: origin buffer complete
			w.Put(src, 0, 1, Float64, 1, 1, 1, Float64)
			w.UnlockAll()
		}
		p.Barrier(p.CommWorld())
		if p.Rank() == 1 {
			if buf.Float64At(0) != 1 || buf.Float64At(8) != 2 {
				t.Errorf("flush_local values: %v %v", buf.Float64At(0), buf.Float64At(8))
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

// TestAtomicsRejectDerivedTypes: MPI allows only predefined types in
// Fetch_and_op and Compare_and_swap. Through a struct of two int64 with an
// 8-byte gap, Compare_and_swap would compare and swap the 24 contiguous
// bytes from the displacement, gap included; both calls must fail by name
// before anything is traced or queued.
func TestAtomicsRejectDerivedTypes(t *testing.T) {
	for _, call := range []string{"Fetch_and_op", "Compare_and_swap"} {
		h := newRecordingHook()
		err := Run(1, Options{Hook: h}, func(p *Proc) error {
			gap := p.TypeStruct([]int{1, 1}, []uint64{0, 16}, []*Datatype{Int64, Int64})
			w, win := p.WinAllocate(32, 1, p.CommWorld(), "win")
			for i, v := range []int64{1, 99, 2} {
				win.SetInt64(uint64(i)*8, v)
			}
			src, cmp, res := p.Alloc(24, "src"), p.Alloc(24, "cmp"), p.Alloc(24, "res")
			cmp.SetInt64(0, 1)
			cmp.SetInt64(8, 2)
			w.Fence(AssertNone)
			if call == "Fetch_and_op" {
				w.FetchAndOp(src, 0, res, 0, 0, 0, gap, trace.OpReplace)
			} else {
				w.CompareAndSwap(src, 0, cmp, 0, res, 0, 0, 0, gap)
			}
			w.Fence(AssertNone)
			return nil
		})
		var ue *UsageError
		if !errors.As(err, &ue) || ue.Call != call {
			t.Errorf("%s through a derived type: err = %v, want a usage error from %s", call, err, call)
			continue
		}
		for _, k := range []trace.Kind{trace.KindFetchOp, trace.KindCompareSwap} {
			if n := len(h.eventsOf(0, k)); n > 0 {
				t.Errorf("%s: %d %v events traced for a rejected call", call, n, k)
			}
		}
	}
}
