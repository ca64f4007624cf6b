package mpi

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/memory"
	"repro/internal/trace"
)

// The per-segment model: the simulator's data movement as it was before
// runs, one segment at a time in element then segment order. pack,
// unpack and the accumulate family must give its bytes exactly.

func refPack(data []byte, off uint64, dm memory.DataMap, count int) []byte {
	var out []byte
	for e := 0; e < count; e++ {
		for _, s := range dm.Segments {
			at := off + uint64(e)*dm.Extent + s.Disp
			out = append(out, data[at:at+s.Len]...)
		}
	}
	return out
}

func refUnpack(data []byte, off uint64, dm memory.DataMap, count int, packed []byte) {
	for e := 0; e < count; e++ {
		for _, s := range dm.Segments {
			at := off + uint64(e)*dm.Extent + s.Disp
			copy(data[at:at+s.Len], packed[:s.Len])
			packed = packed[s.Len:]
		}
	}
}

// refAccumulate combines packed into data segment by segment and returns
// the prior target bytes in packed order.
func refAccumulate(data []byte, off uint64, d *Datatype, count int, packed []byte, op trace.AccOp) []byte {
	var old []byte
	for e := 0; e < count; e++ {
		for _, s := range d.dm.Segments {
			at := off + uint64(e)*d.dm.Extent + s.Disp
			old = append(old, data[at:at+s.Len]...)
			combine(data[at:at+s.Len], packed[:s.Len], d.elem, op)
			packed = packed[s.Len:]
		}
	}
	return old
}

// randomBuffer returns a buffer of size bytes of seeded random data.
func randomBuffer(rng *rand.Rand, size uint64, name string) *memory.Buffer {
	b := memory.NewAddressSpace().Alloc(size, name)
	rng.Read(b.Bytes())
	return b
}

func cloneBuffer(b *memory.Buffer) *memory.Buffer {
	c := memory.NewAddressSpace().Alloc(b.Size(), b.Name())
	copy(c.Bytes(), b.Bytes())
	return c
}

// checkRuns moves count elements of d at byte offset off through pack,
// unpack, Accumulate, Get_accumulate and (at count 1) Fetch_and_op, and
// fails t where any result differs from the per-segment model. Arithmetic
// ops run only on a type whose segments are whole base elements, the
// types checkAccumulate lets through.
func checkRuns(t *testing.T, d *Datatype, count int, off uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(count)<<8 | int64(off)))
	size := off + 8
	if count > 0 {
		for _, s := range d.dm.Segments {
			size = max(size, off+uint64(count-1)*d.dm.Extent+s.Disp+s.Len)
		}
	}
	src := randomBuffer(rng, size, "src")
	if got, want := pack(src, off, d, count), refPack(src.Bytes(), off, d.dm, count); !bytes.Equal(got, want) {
		t.Fatalf("pack %v ×%d at %d:\n got %x\nwant %x", d.dm, count, off, got, want)
	}

	packed := make([]byte, d.dm.TileBytes(count))
	rng.Read(packed)
	got, want := cloneBuffer(src), cloneBuffer(src)
	unpack(got, off, d, count, packed)
	refUnpack(want.Bytes(), off, d.dm, count, packed)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("unpack %v ×%d at %d:\n got %x\nwant %x", d.dm, count, off, got.Bytes(), want.Bytes())
	}

	ops := []trace.AccOp{trace.OpReplace}
	if es := elemSize(d.elem); es > 0 && wholeElements(d, es) {
		ops = append(ops, trace.OpSum, trace.OpProd, trace.OpMax, trace.OpMin)
	}
	kinds := []trace.Kind{trace.KindAccumulate, trace.KindGetAccumulate}
	if count == 1 {
		kinds = append(kinds, trace.KindFetchOp)
	}
	origin := randomBuffer(rng, size, "origin")
	for _, kind := range kinds {
		for _, op := range ops {
			target, result := randomBuffer(rng, size, "target"), randomBuffer(rng, size, "result")
			wantTarget, wantResult := cloneBuffer(target), cloneBuffer(result)
			s := &winShared{locals: []winLocal{{buf: target, dispUnit: 1}}}
			rop := &rmaOp{
				kind: kind, op: op,
				originBuf: origin, originOff: off, originType: d, originCount: count,
				targetDisp: off, targetType: d, targetCount: count,
				resultBuf: result, resultOff: off, resultType: d, resultCount: count,
			}
			scratch := bytes.Repeat([]byte{0xa5}, int(rop.scratchBytes())) // stale bytes of a batch's earlier op
			s.apply(rop, scratch)
			old := refAccumulate(wantTarget.Bytes(), off, d, count, refPack(origin.Bytes(), off, d.dm, count), op)
			if kind != trace.KindAccumulate {
				refUnpack(wantResult.Bytes(), off, d.dm, count, old)
			}
			if !bytes.Equal(target.Bytes(), wantTarget.Bytes()) {
				t.Fatalf("%v %v %v ×%d at %d: target\n got %x\nwant %x", kind, op, d.dm, count, off, target.Bytes(), wantTarget.Bytes())
			}
			if !bytes.Equal(result.Bytes(), wantResult.Bytes()) {
				t.Fatalf("%v %v %v ×%d at %d: result\n got %x\nwant %x", kind, op, d.dm, count, off, result.Bytes(), wantResult.Bytes())
			}
		}
	}
}

func wholeElements(d *Datatype, es uint64) bool {
	for _, s := range d.dm.Segments {
		if s.Len%es != 0 {
			return false
		}
	}
	return true
}

func TestRunsMatchSegmentCopies(t *testing.T) {
	var types []*Datatype
	err := Run(1, Options{}, func(p *Proc) error {
		vec := p.TypeVector(3, 2, 4, Float64)
		types = []*Datatype{
			Byte, Int32, Int64, Float32, Float64,
			p.TypeContiguous(3, Int32),
			p.TypeContiguous(2, vec),
			vec,
			p.TypeVector(4, 1, 2, Int32),
			p.TypeVector(3, 2, 2, Float32), // stride == blocklen: contiguous
			p.TypeIndexed([]int{2, 1}, []int{0, 5}, Int32),
			p.TypeIndexed([]int{1, 2}, []int{4, 0}, Int64), // blocks given out of order
			p.TypeSubarray2D(4, 4, 2, 2, 1, 1, Int32),
			p.TypeSubarray2D(4, 4, 2, 4, 0, 0, Float64), // whole rows: one segment, shorter than the extent
			p.TypeSubarray2D(4, 4, 2, 4, 1, 0, Float64),
			p.TypeSubarray2D(3, 4, 3, 4, 0, 0, Byte), // the whole array
			p.TypeStruct([]int{1, 1}, []uint64{0, 12}, []*Datatype{Int32, Int64}),
			p.TypeStruct([]int{1, 1}, []uint64{0, 16}, []*Datatype{Float64, Float64}), // the last segment ends at the extent
			p.TypeStruct([]int{2, 1}, []uint64{0, 16}, []*Datatype{Float64, Float64}),
			p.TypeStruct([]int{1, 1}, []uint64{0, 4}, []*Datatype{Float64, Float64}), // one 12-byte segment
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range types {
		for _, count := range []int{0, 1, 2, 3, 5} {
			for _, off := range []uint64{0, 3, 8} {
				checkRuns(t, d, count, off)
			}
		}
	}
}

// FuzzRuns checks the run walk against the per-segment model on segment
// lists no constructor makes: unsorted, overlapping or adjacent segments
// and an extent below the span.
func FuzzRuns(f *testing.F) {
	f.Add([]byte{0, 0}, uint8(8), uint8(3), uint8(0), uint8(4))
	f.Add([]byte{0, 1, 32, 1, 64, 1}, uint8(80), uint8(3), uint8(5), uint8(4))
	f.Add([]byte{16, 0, 0, 0, 8, 1}, uint8(24), uint8(4), uint8(2), uint8(1))
	f.Add([]byte{4, 3, 0, 1}, uint8(2), uint8(2), uint8(1), uint8(0))
	elems := []int32{trace.TypeByte, trace.TypeInt32, trace.TypeInt64, trace.TypeFloat32, trace.TypeFloat64}
	f.Fuzz(func(t *testing.T, spec []byte, extent, count, off, elem uint8) {
		d := &Datatype{elem: elems[int(elem)%len(elems)]}
		es := elemSize(d.elem)
		for i := 0; i+1 < len(spec) && len(d.dm.Segments) < 8; i += 2 {
			d.dm.Segments = append(d.dm.Segments, memory.Segment{
				Disp: uint64(spec[i] % 64), Len: (uint64(spec[i+1]%4) + 1) * es,
			})
		}
		d.dm.Extent = uint64(extent % 96)
		checkRuns(t, d, int(count%9), uint64(off%16))
	})
}

// TestAccumulateRejectsPartialElements: an arithmetic accumulate through
// a type whose segment is not whole base elements must fail by name
// before it is queued. The struct of two float64 at byte offsets 0 and 4
// is one 12-byte segment with extent 12.
func TestAccumulateRejectsPartialElements(t *testing.T) {
	for _, call := range []string{"Accumulate", "Get_accumulate", "Fetch_and_op"} {
		h := newRecordingHook()
		err := Run(1, Options{Hook: h}, func(p *Proc) error {
			bad := p.TypeStruct([]int{1, 1}, []uint64{0, 4}, []*Datatype{Float64, Float64})
			win := p.AllocFloat64(8, "win")
			w := p.WinCreate(win, 1, p.CommWorld())
			src := p.AllocFloat64(6, "src")
			res := p.AllocFloat64(6, "res")
			w.Fence(AssertNone)
			switch call {
			case "Accumulate":
				w.Accumulate(src, 0, 6, Float64, 0, 0, 4, bad, trace.OpSum)
			case "Get_accumulate":
				w.GetAccumulate(src, 0, 6, Float64, res, 0, 4, bad, 0, 0, 6, Float64, trace.OpSum)
			case "Fetch_and_op":
				w.FetchAndOp(src, 0, res, 0, 0, 0, bad, trace.OpMax)
			}
			w.Fence(AssertNone)
			return nil
		})
		var ue *UsageError
		if !errors.As(err, &ue) || ue.Call != call {
			t.Errorf("%s: err = %v, want a usage error from %s", call, err, call)
			continue
		}
		for _, k := range []trace.Kind{trace.KindAccumulate, trace.KindGetAccumulate, trace.KindFetchOp} {
			if n := len(h.eventsOf(0, k)); n > 0 {
				t.Errorf("%s: %d %v events traced for a rejected call", call, n, k)
			}
		}
	}

	// Replace moves bytes without lane arithmetic, so any type goes.
	err := Run(1, Options{}, func(p *Proc) error {
		bad := p.TypeStruct([]int{1, 1}, []uint64{0, 4}, []*Datatype{Float64, Float64})
		win := p.AllocFloat64(8, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		src := p.AllocFloat64(6, "src")
		w.Fence(AssertNone)
		w.Accumulate(src, 0, 6, Float64, 0, 0, 4, bad, trace.OpReplace)
		w.Fence(AssertNone)
		w.Free()
		return nil
	})
	if err != nil {
		t.Errorf("replace through a partial-element type: %v", err)
	}
}

// BenchmarkRMAApply times fence epochs of 16 ranks, each moving 288
// float64 to or from its right neighbour's window: SCF's contiguous Get
// and Accumulate, and a Put from a contiguous buffer into a strided
// vector of 72 blocks of 4. One op is one epoch, applied by the fence's
// last arriver while the other ranks wait.
func BenchmarkRMAApply(b *testing.B) {
	const ranks, n = 16, 288
	cases := []struct {
		name string
		op   func(w *Win, local *memory.Buffer, peer int, vec *Datatype)
	}{
		{"get-contig", func(w *Win, local *memory.Buffer, peer int, _ *Datatype) {
			w.Get(local, 0, n, Float64, peer, n, n, Float64)
		}},
		{"acc-contig", func(w *Win, local *memory.Buffer, peer int, _ *Datatype) {
			w.Accumulate(local, 0, n, Float64, peer, 0, n, Float64, trace.OpSum)
		}},
		{"put-vector", func(w *Win, local *memory.Buffer, peer int, vec *Datatype) {
			w.Put(local, 0, n, Float64, peer, 0, 1, vec)
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			err := Run(ranks, Options{}, func(p *Proc) error {
				vec := p.TypeVector(n/4, 4, 8, Float64)
				win := p.AllocFloat64(2*n, "win")
				w := p.WinCreate(win, 8, p.CommWorld())
				local := p.AllocFloat64(n, "local")
				peer := (p.Rank() + 1) % p.Size()
				w.Fence(AssertNone)
				for i := 0; i < b.N; i++ {
					c.op(w, local, peer, vec)
					w.Fence(AssertNone)
				}
				w.Free()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
