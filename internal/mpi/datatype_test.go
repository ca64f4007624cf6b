package mpi

import (
	"reflect"
	"testing"

	"repro/internal/memory"
	"repro/internal/trace"
)

func TestPredefinedDatatypes(t *testing.T) {
	cases := []struct {
		d    *Datatype
		id   int32
		size uint64
	}{
		{Byte, trace.TypeByte, 1},
		{Int32, trace.TypeInt32, 4},
		{Int64, trace.TypeInt64, 8},
		{Float32, trace.TypeFloat32, 4},
		{Float64, trace.TypeFloat64, 8},
	}
	for _, c := range cases {
		if c.d.ID() != c.id || c.d.Size() != c.size || c.d.Extent() != c.size {
			t.Errorf("type %d: id=%d size=%d extent=%d", c.id, c.d.ID(), c.d.Size(), c.d.Extent())
		}
	}
}

func TestTypeConstructors(t *testing.T) {
	h := newRecordingHook()
	err := Run(1, Options{Hook: h}, func(p *Proc) error {
		contig := p.TypeContiguous(3, Int32)
		if contig.Size() != 12 || contig.Extent() != 12 {
			t.Errorf("contig: size=%d extent=%d", contig.Size(), contig.Extent())
		}
		if contig.ID() < trace.TypeUserBase {
			t.Errorf("user type id %d below base", contig.ID())
		}

		vec := p.TypeVector(3, 2, 4, Float64) // 3 blocks of 2, stride 4
		if vec.Size() != 48 {
			t.Errorf("vector size = %d", vec.Size())
		}
		if vec.Extent() != (2*4+2)*8 {
			t.Errorf("vector extent = %d", vec.Extent())
		}
		gotSegs := vec.Map().Segments
		// Stride 4 is in base extents: 4×8 = 32 bytes between block starts.
		want := []memory.Segment{{Disp: 0, Len: 16}, {Disp: 32, Len: 16}, {Disp: 64, Len: 16}}
		if !reflect.DeepEqual(gotSegs, want) {
			t.Errorf("vector segments = %v, want %v", gotSegs, want)
		}

		idx := p.TypeIndexed([]int{2, 1}, []int{0, 5}, Int32)
		wantIdx := []memory.Segment{{Disp: 0, Len: 8}, {Disp: 20, Len: 4}}
		if !reflect.DeepEqual(idx.Map().Segments, wantIdx) {
			t.Errorf("indexed segments = %v, want %v", idx.Map().Segments, wantIdx)
		}

		st := p.TypeStruct([]int{1, 1}, []uint64{0, 12}, []*Datatype{Int32, Int64})
		wantSt := []memory.Segment{{Disp: 0, Len: 4}, {Disp: 12, Len: 8}}
		if !reflect.DeepEqual(st.Map().Segments, wantSt) {
			t.Errorf("struct segments = %v, want %v", st.Map().Segments, wantSt)
		}
		if st.elem != 0 {
			t.Error("heterogeneous struct must have no arithmetic base")
		}

		homog := p.TypeStruct([]int{2, 1}, []uint64{0, 16}, []*Datatype{Float64, Float64})
		if homog.elem != trace.TypeFloat64 {
			t.Error("homogeneous struct must keep base type")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every constructor must log a Type_create event with the data-map.
	evs := h.eventsOf(0, trace.KindTypeCreate)
	if len(evs) != 5 {
		t.Fatalf("type create events: %d", len(evs))
	}
	if evs[0].TypeMap().Size() != 12 {
		t.Errorf("logged contig map = %v", evs[0].TypeMap())
	}
}

func TestTypeSubarray2D(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		// 4x4 int32 matrix; select the 2x2 block at (1,1).
		sub := p.TypeSubarray2D(4, 4, 2, 2, 1, 1, Int32)
		if sub.Size() != 16 {
			t.Errorf("subarray size = %d", sub.Size())
		}
		want := []memory.Segment{{Disp: (1*4 + 1) * 4, Len: 8}, {Disp: (2*4 + 1) * 4, Len: 8}}
		if !reflect.DeepEqual(sub.Map().Segments, want) {
			t.Errorf("subarray segments = %v, want %v", sub.Map().Segments, want)
		}
		if sub.Extent() != 64 {
			t.Errorf("subarray extent = %d (full array)", sub.Extent())
		}

		// Transfer the block between ranks through a window.
		win := p.Alloc(64, "mat")
		w := p.WinCreate(win, 1, p.CommWorld())
		if p.Rank() == 0 {
			for i := uint64(0); i < 16; i++ {
				win.SetInt32(i*4, int32(i))
			}
		}
		w.Fence(AssertNone)
		if p.Rank() == 0 {
			w.Put(win, 0, 1, sub, 1, 0, 1, sub)
		}
		w.Fence(AssertNone)
		if p.Rank() == 1 {
			// Only the 2x2 block lands; everything else stays zero.
			for _, c := range []struct {
				idx  uint64
				want int32
			}{{5, 5}, {6, 6}, {9, 9}, {10, 10}, {0, 0}, {4, 0}, {15, 0}} {
				if got := win.Int32At(c.idx * 4); got != c.want {
					t.Errorf("cell %d = %d, want %d", c.idx, got, c.want)
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

func TestTypeSubarrayValidation(t *testing.T) {
	err := Run(1, Options{}, func(p *Proc) error {
		p.TypeSubarray2D(4, 4, 3, 3, 2, 2, Int32) // overflows
		return nil
	})
	if err == nil {
		t.Error("out-of-bounds subarray must be rejected")
	}
}

func TestTypeConstructorValidation(t *testing.T) {
	for name, body := range map[string]func(p *Proc){
		"contig-zero":     func(p *Proc) { p.TypeContiguous(0, Int32) },
		"vector-bad":      func(p *Proc) { p.TypeVector(2, 3, 1, Int32) },
		"indexed-empty":   func(p *Proc) { p.TypeIndexed(nil, nil, Int32) },
		"indexed-negdisp": func(p *Proc) { p.TypeIndexed([]int{1}, []int{-1}, Int32) },
		"struct-mismatch": func(p *Proc) { p.TypeStruct([]int{1}, []uint64{0, 8}, []*Datatype{Int32}) },
	} {
		err := Run(1, Options{}, func(p *Proc) error { body(p); return nil })
		if err == nil {
			t.Errorf("%s: expected usage error", name)
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	err := Run(1, Options{}, func(p *Proc) error {
		vec := p.TypeVector(2, 1, 3, Int32) // elements at offsets 0 and 12 bytes
		src := p.Alloc(64, "src")
		dst := p.Alloc(64, "dst")
		src.SetInt32(0, 5)
		src.SetInt32(12, 7)
		packed := pack(src, 0, vec, 1)
		if len(packed) != 8 {
			t.Fatalf("packed %d bytes", len(packed))
		}
		unpack(dst, 0, vec, 1, packed)
		if dst.Int32At(0) != 5 || dst.Int32At(12) != 7 {
			t.Errorf("unpack: %d %d", dst.Int32At(0), dst.Int32At(12))
		}
		// Unpack the same data contiguously.
		unpack(dst, 32, Int32, 2, packed)
		if dst.Int32At(32) != 5 || dst.Int32At(36) != 7 {
			t.Errorf("contig unpack: %d %d", dst.Int32At(32), dst.Int32At(36))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCombineOps(t *testing.T) {
	f64 := func(vals ...float64) []byte {
		b := make([]byte, 0, len(vals)*8)
		tmp := memory.NewAddressSpace().Alloc(uint64(len(vals))*8, "t")
		tmp.SetFloat64Slice(0, vals)
		return append(b, tmp.Bytes()...)
	}
	dst := f64(1, 2, 3)
	combine(dst, f64(10, 20, 30), trace.TypeFloat64, trace.OpSum)
	got := memory.NewAddressSpace().Alloc(24, "g")
	copy(got.Bytes(), dst)
	if got.Float64At(0) != 11 || got.Float64At(8) != 22 || got.Float64At(16) != 33 {
		t.Errorf("sum: %v %v %v", got.Float64At(0), got.Float64At(8), got.Float64At(16))
	}

	dst = f64(5)
	combine(dst, f64(3), trace.TypeFloat64, trace.OpMax)
	copy(got.Bytes(), dst)
	if got.Float64At(0) != 5 {
		t.Error("max wrong")
	}

	dst = f64(5)
	combine(dst, f64(3), trace.TypeFloat64, trace.OpReplace)
	copy(got.Bytes(), dst)
	if got.Float64At(0) != 3 {
		t.Error("replace wrong")
	}

	// Byte sum.
	b := []byte{1, 2}
	combine(b, []byte{10, 20}, trace.TypeByte, trace.OpSum)
	if b[0] != 11 || b[1] != 22 {
		t.Errorf("byte sum: %v", b)
	}
}
