package mpi

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestFencePutGet(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		win := p.Alloc(32, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			src.SetFloat64(0, 2.25)
			w.Put(src, 0, 1, Float64, 1, 8, 1, Float64) // disp 8 bytes into rank 1's window
		}
		w.Fence(AssertNone)
		if p.Rank() == 1 {
			if got := w.LocalBuffer().Float64At(8); got != 2.25 {
				t.Errorf("put result = %g", got)
			}
			w.LocalBuffer().SetFloat64(16, 9.5)
		}
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			dst := p.Alloc(8, "dst")
			w.Get(dst, 0, 1, Float64, 1, 16, 1, Float64)
			w.Fence(AssertNone)
			if got := dst.Float64At(0); got != 9.5 {
				t.Errorf("get result = %g", got)
			}
		} else {
			w.Fence(AssertNone)
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFenceBatchScratchFitsLargestOp: a fence batch packs every operation
// through one scratch buffer, which must hold the largest of them though
// it is not first in the batch: rank 0's one-element Put applies before
// rank 1's 32-element Put and its Get_accumulate, which also fetches the
// target's prior values.
func TestFenceBatchScratchFitsLargestOp(t *testing.T) {
	const n = 32
	err := Run(3, Options{Timeout: 10 * time.Second}, func(p *Proc) error {
		win := p.AllocFloat64(2*n+1, "win")
		w := p.WinCreate(win, 8, p.CommWorld())
		src := p.AllocFloat64(n, "src")
		res := p.AllocFloat64(n, "res")
		for i := 0; i < n; i++ {
			src.SetFloat64(uint64(8*i), float64(100*(p.Rank()+1)+i))
			win.SetFloat64(uint64(8*(n+1+i)), 1)
		}
		w.Fence(AssertNone)
		switch p.Rank() {
		case 0:
			w.Put(src, 0, 1, Float64, 2, 0, 1, Float64)
		case 1:
			w.Put(src, 0, n, Float64, 2, 1, n, Float64)
			w.GetAccumulate(src, 0, n, Float64, res, 0, n, Float64, 2, n+1, n, Float64, trace.OpSum)
		}
		w.Fence(AssertNone)
		switch p.Rank() {
		case 1:
			for i := 0; i < n; i++ {
				if got := res.Float64At(uint64(8 * i)); got != 1 {
					t.Errorf("fetched word %d = %g, want 1", i, got)
				}
			}
		case 2:
			if got := win.Float64At(0); got != 100 {
				t.Errorf("word 0 = %g, want rank 0's 100", got)
			}
			for i := 0; i < n; i++ {
				if got := win.Float64At(uint64(8 * (1 + i))); got != float64(200+i) {
					t.Errorf("put word %d = %g, want %d", i, got, 200+i)
				}
				if got := win.Float64At(uint64(8 * (n + 1 + i))); got != float64(201+i) {
					t.Errorf("accumulated word %d = %g, want %d", i, got, 201+i)
				}
			}
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeferredCompletion verifies the core simulator property the paper's
// bugs depend on: Put/Get do not move data until the epoch closes.
func TestDeferredCompletion(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		if p.Rank() == 1 {
			win.SetInt64(0, 42)
		}
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			dst := p.Alloc(8, "out")
			dst.SetInt64(0, -1)
			w.Get(dst, 0, 1, Int64, 1, 0, 1, Int64)
			// Figure 1 of the paper: reading before the epoch closes sees
			// the OLD value because Get is nonblocking.
			if got := dst.Int64At(0); got != -1 {
				t.Errorf("Get completed eagerly: saw %d before fence", got)
			}
			w.Fence(AssertNone)
			if got := dst.Int64At(0); got != 42 {
				t.Errorf("Get did not complete at fence: %d", got)
			}
		} else {
			w.Fence(AssertNone)
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPutReadsOriginAtCompletion verifies that a store to the origin buffer
// between Put and fence corrupts the transfer — the ADLB/GFMC bug class
// (paper Figure 2a) must actually manifest.
func TestPutReadsOriginAtCompletion(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "buf")
			src.SetInt64(0, 7)
			w.Put(src, 0, 1, Int64, 1, 0, 1, Int64)
			src.SetInt64(0, 666) // the bug: overwrite before completion
		}
		w.Fence(AssertNone)
		if p.Rank() == 1 {
			if got := w.LocalBuffer().Int64At(0); got != 666 {
				t.Errorf("deferred put transferred %d; the buggy store should corrupt it", got)
			}
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateSum(t *testing.T) {
	const n = 4
	err := Run(n, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		win.SetFloat64(0, 0)
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(AssertNone)
		src := p.Alloc(8, "src")
		src.SetFloat64(0, float64(p.Rank()+1))
		w.Accumulate(src, 0, 1, Float64, 0, 0, 1, Float64, trace.OpSum)
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			if got := w.LocalBuffer().Float64At(0); got != 10 { // 1+2+3+4
				t.Errorf("accumulate sum = %g", got)
			}
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateReplaceAndValidation(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			src.SetInt64(0, 31)
			w.Accumulate(src, 0, 1, Int64, 1, 0, 1, Int64, trace.OpReplace)
		}
		w.Fence(AssertNone)
		if p.Rank() == 1 && w.LocalBuffer().Int64At(0) != 31 {
			t.Errorf("replace = %d", w.LocalBuffer().Int64At(0))
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Missing op is a usage error.
	err = Run(1, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(AssertNone)
		src := p.Alloc(8, "src")
		w.Accumulate(src, 0, 1, Int64, 0, 0, 1, Int64, trace.OpNone)
		return nil
	})
	if err == nil {
		t.Error("OpNone must be rejected")
	}
}

func TestLockUnlockPassiveTarget(t *testing.T) {
	err := Run(3, Options{}, func(p *Proc) error {
		win := p.Alloc(24, "win")
		w := p.WinCreate(win, 8, p.CommWorld()) // disp unit 8
		p.Barrier(p.CommWorld())
		if p.Rank() != 0 {
			src := p.Alloc(8, "src")
			src.SetFloat64(0, float64(p.Rank()))
			w.Lock(trace.LockShared, 0)
			w.Put(src, 0, 1, Float64, 0, uint64(p.Rank()), 1, Float64)
			w.Unlock(0)
		}
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			if w.LocalBuffer().Float64At(8) != 1 || w.LocalBuffer().Float64At(16) != 2 {
				t.Errorf("lock/put results: %g %g",
					w.LocalBuffer().Float64At(8), w.LocalBuffer().Float64At(16))
			}
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveLockMutualExclusion(t *testing.T) {
	var inside atomic.Int32
	var overlap atomic.Bool
	err := Run(4, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		p.Barrier(p.CommWorld())
		for i := 0; i < 10; i++ {
			w.Lock(trace.LockExclusive, 0)
			if inside.Add(1) > 1 {
				overlap.Store(true)
			}
			inside.Add(-1)
			w.Unlock(0)
		}
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if overlap.Load() {
		t.Error("two ranks held the exclusive lock simultaneously")
	}
}

func TestLockStateErrors(t *testing.T) {
	err := Run(1, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Unlock(0) // not locked
		return nil
	})
	var ue *UsageError
	if !errors.As(err, &ue) || ue.Call != "Win_unlock" {
		t.Errorf("err = %v", err)
	}

	err = Run(1, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Lock(trace.LockShared, 0)
		w.Lock(trace.LockShared, 0) // double lock
		return nil
	})
	if !errors.As(err, &ue) || ue.Call != "Win_lock" {
		t.Errorf("err = %v", err)
	}
}

func TestRMAWithoutEpochFails(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			w.Put(src, 0, 1, Int64, 1, 0, 1, Int64) // no fence/lock/start
		}
		return nil
	})
	var ue *UsageError
	if !errors.As(err, &ue) || !strings.Contains(ue.Msg, "epoch") {
		t.Errorf("err = %v", err)
	}
}

func TestPSCW(t *testing.T) {
	err := Run(3, Options{}, func(p *Proc) error {
		win := p.Alloc(16, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		world := p.CommWorld().Group()
		switch p.Rank() {
		case 0: // target
			w.Post(world.Incl([]int{1, 2}))
			w.WaitEpoch()
			if w.LocalBuffer().Int64At(0) != 100 || w.LocalBuffer().Int64At(8) != 200 {
				t.Errorf("pscw puts: %d %d", w.LocalBuffer().Int64At(0), w.LocalBuffer().Int64At(8))
			}
		case 1, 2:
			src := p.Alloc(8, "src")
			src.SetInt64(0, int64(p.Rank()*100))
			w.Start(world.Incl([]int{0}))
			w.Put(src, 0, 1, Int64, 0, uint64((p.Rank()-1)*8), 1, Int64)
			w.Complete()
		}
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPSCWErrors(t *testing.T) {
	err := Run(1, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Complete() // no Start
		return nil
	})
	var ue *UsageError
	if !errors.As(err, &ue) || ue.Call != "Win_complete" {
		t.Errorf("err = %v", err)
	}

	err = Run(1, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.WaitEpoch() // no Post
		return nil
	})
	if !errors.As(err, &ue) || ue.Call != "Win_wait" {
		t.Errorf("err = %v", err)
	}
}

func TestTargetRangeCheck(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		win := p.Alloc(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(16, "src")
			w.Put(src, 0, 2, Int64, 1, 0, 2, Int64) // 16 bytes into an 8-byte window
		}
		w.Fence(AssertNone)
		return nil
	})
	var ue *UsageError
	if !errors.As(err, &ue) || !strings.Contains(ue.Msg, "window") {
		t.Errorf("err = %v", err)
	}
}

func TestTransferSizeMismatch(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		win := p.Alloc(64, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			w.Put(src, 0, 1, Int64, 1, 0, 3, Int32) // 8 vs 12 bytes
		}
		w.Fence(AssertNone)
		return nil
	})
	if err == nil {
		t.Error("size mismatch must be rejected")
	}
}

func TestWinCreateEventLogged(t *testing.T) {
	h := newRecordingHook()
	err := Run(2, Options{Hook: h}, func(p *Proc) error {
		win := p.Alloc(128, "win")
		w := p.WinCreate(win, 4, p.CommWorld())
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := h.eventsOf(0, trace.KindWinCreate)
	if len(evs) != 1 {
		t.Fatalf("win create events: %d", len(evs))
	}
	if evs[0].WinSize() != 128 || evs[0].DispUnit() != 4 || evs[0].WinBase() == 0 {
		t.Errorf("win create = %+v", evs[0])
	}
	if len(h.eventsOf(1, trace.KindWinFree)) != 1 {
		t.Error("win free not logged")
	}
}

func TestStridedPut(t *testing.T) {
	// Put a contiguous buffer into a strided target layout.
	err := Run(2, Options{}, func(p *Proc) error {
		win := p.Alloc(48, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		var stride *Datatype
		if p.Rank() == 0 {
			stride = p.TypeVector(3, 1, 2, Int32) // target: every other int32
		}
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(12, "src")
			for i := uint64(0); i < 3; i++ {
				src.SetInt32(i*4, int32(i+1))
			}
			w.Put(src, 0, 3, Int32, 1, 0, 1, stride)
		}
		w.Fence(AssertNone)
		if p.Rank() == 1 {
			lb := w.LocalBuffer()
			if lb.Int32At(0) != 1 || lb.Int32At(8) != 2 || lb.Int32At(16) != 3 {
				t.Errorf("strided put: %d %d %d", lb.Int32At(0), lb.Int32At(8), lb.Int32At(16))
			}
			if lb.Int32At(4) != 0 {
				t.Error("gap byte written")
			}
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
