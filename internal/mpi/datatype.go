package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Datatype describes the memory layout of message and RMA elements as a
// data-map (paper §IV-C-1c), plus the predefined base type used for
// reduction arithmetic.
type Datatype struct {
	id   int32
	dm   memory.DataMap
	elem int32 // predefined base type id; 0 when heterogeneous
}

// Predefined datatypes. Their ids are fixed constants shared with the
// analyzer (trace.TypeByte etc.).
var (
	Byte    = &Datatype{id: trace.TypeByte, dm: memory.Contig(1), elem: trace.TypeByte}
	Int32   = &Datatype{id: trace.TypeInt32, dm: memory.Contig(4), elem: trace.TypeInt32}
	Int64   = &Datatype{id: trace.TypeInt64, dm: memory.Contig(8), elem: trace.TypeInt64}
	Float32 = &Datatype{id: trace.TypeFloat32, dm: memory.Contig(4), elem: trace.TypeFloat32}
	Float64 = &Datatype{id: trace.TypeFloat64, dm: memory.Contig(8), elem: trace.TypeFloat64}
)

// ID returns the datatype id as it appears in the trace.
func (d *Datatype) ID() int32 { return d.id }

// Map returns the datatype's data-map.
func (d *Datatype) Map() memory.DataMap { return d.dm }

// Size returns the number of bytes one element actually transfers.
func (d *Datatype) Size() uint64 { return d.dm.Size() }

// Extent returns the stride between consecutive elements.
func (d *Datatype) Extent() uint64 { return d.dm.Extent }

func elemSize(elem int32) uint64 {
	dm, ok := trace.PredefinedType(elem)
	if !ok {
		return 0
	}
	return dm.Size()
}

// registerType emits the datatype-definition event and returns the type.
func (p *Proc) registerType(dm memory.DataMap, elem int32) *Datatype {
	d := &Datatype{id: p.allocTypeID(), dm: dm.Normalize(), elem: elem}
	p.emit(trace.Event{
		Kind: trace.KindTypeCreate,
		Def:  &trace.Def{TypeID: d.id, TypeMap: d.dm},
	}, 2)
	return d
}

// TypeContiguous builds a datatype of count consecutive base elements
// (MPI_Type_contiguous).
func (p *Proc) TypeContiguous(count int, base *Datatype) *Datatype {
	if count <= 0 {
		p.errorf("Type_contiguous", "count %d must be positive", count)
	}
	var segs []memory.Segment
	for e := 0; e < count; e++ {
		origin := uint64(e) * base.dm.Extent
		for _, s := range base.dm.Segments {
			segs = append(segs, memory.Segment{Disp: origin + s.Disp, Len: s.Len})
		}
	}
	dm := memory.DataMap{Segments: segs, Extent: uint64(count) * base.dm.Extent}
	return p.registerType(dm, base.elem)
}

// TypeVector builds count blocks of blocklen base elements with a stride of
// stride base extents between block starts (MPI_Type_vector).
func (p *Proc) TypeVector(count, blocklen, stride int, base *Datatype) *Datatype {
	if count <= 0 || blocklen <= 0 || stride < blocklen {
		p.errorf("Type_vector", "invalid count=%d blocklen=%d stride=%d", count, blocklen, stride)
	}
	var segs []memory.Segment
	for b := 0; b < count; b++ {
		blockOrigin := uint64(b) * uint64(stride) * base.dm.Extent
		for e := 0; e < blocklen; e++ {
			origin := blockOrigin + uint64(e)*base.dm.Extent
			for _, s := range base.dm.Segments {
				segs = append(segs, memory.Segment{Disp: origin + s.Disp, Len: s.Len})
			}
		}
	}
	extent := (uint64(count-1)*uint64(stride) + uint64(blocklen)) * base.dm.Extent
	dm := memory.DataMap{Segments: segs, Extent: extent}
	return p.registerType(dm, base.elem)
}

// TypeIndexed builds blocks of blocklens[i] base elements at displacements
// disps[i] (in base extents) (MPI_Type_indexed).
func (p *Proc) TypeIndexed(blocklens, disps []int, base *Datatype) *Datatype {
	if len(blocklens) != len(disps) || len(blocklens) == 0 {
		p.errorf("Type_indexed", "blocklens and disps must be non-empty and equal length")
	}
	var segs []memory.Segment
	var maxEnd uint64
	for i := range blocklens {
		if blocklens[i] <= 0 || disps[i] < 0 {
			p.errorf("Type_indexed", "invalid block %d: len=%d disp=%d", i, blocklens[i], disps[i])
		}
		blockOrigin := uint64(disps[i]) * base.dm.Extent
		for e := 0; e < blocklens[i]; e++ {
			origin := blockOrigin + uint64(e)*base.dm.Extent
			for _, s := range base.dm.Segments {
				segs = append(segs, memory.Segment{Disp: origin + s.Disp, Len: s.Len})
			}
		}
		end := blockOrigin + uint64(blocklens[i])*base.dm.Extent
		if end > maxEnd {
			maxEnd = end
		}
	}
	dm := memory.DataMap{Segments: segs, Extent: maxEnd}
	return p.registerType(dm, base.elem)
}

// TypeSubarray2D builds a datatype selecting the srows×scols block starting
// at (startRow, startCol) of a row-major rows×cols array of base elements
// (the two-dimensional case of MPI_Type_create_subarray, the datatype halo
// exchanges use).
func (p *Proc) TypeSubarray2D(rows, cols, srows, scols, startRow, startCol int, base *Datatype) *Datatype {
	if rows <= 0 || cols <= 0 || srows <= 0 || scols <= 0 ||
		startRow < 0 || startCol < 0 || startRow+srows > rows || startCol+scols > cols {
		p.errorf("Type_create_subarray", "invalid subarray %dx%d at (%d,%d) of %dx%d",
			srows, scols, startRow, startCol, rows, cols)
	}
	var segs []memory.Segment
	for r := 0; r < srows; r++ {
		rowOrigin := uint64((startRow+r)*cols+startCol) * base.dm.Extent
		for e := 0; e < scols; e++ {
			origin := rowOrigin + uint64(e)*base.dm.Extent
			for _, s := range base.dm.Segments {
				segs = append(segs, memory.Segment{Disp: origin + s.Disp, Len: s.Len})
			}
		}
	}
	dm := memory.DataMap{Segments: segs, Extent: uint64(rows*cols) * base.dm.Extent}
	return p.registerType(dm, base.elem)
}

// TypeStruct builds a general structure datatype from byte displacements
// (MPI_Type_create_struct). The element base is preserved only when all
// component types share it; otherwise the result cannot be used with
// Accumulate or reductions.
func (p *Proc) TypeStruct(blocklens []int, byteDisps []uint64, types []*Datatype) *Datatype {
	if len(blocklens) != len(byteDisps) || len(blocklens) != len(types) || len(blocklens) == 0 {
		p.errorf("Type_struct", "argument arrays must be non-empty and equal length")
	}
	elem := types[0].elem
	var segs []memory.Segment
	var maxEnd uint64
	for i := range blocklens {
		if types[i].elem != elem {
			elem = 0
		}
		for e := 0; e < blocklens[i]; e++ {
			origin := byteDisps[i] + uint64(e)*types[i].dm.Extent
			for _, s := range types[i].dm.Segments {
				segs = append(segs, memory.Segment{Disp: origin + s.Disp, Len: s.Len})
			}
		}
		end := byteDisps[i] + uint64(blocklens[i])*types[i].dm.Extent
		if end > maxEnd {
			maxEnd = end
		}
	}
	dm := memory.DataMap{Segments: segs, Extent: maxEnd}
	return p.registerType(dm, elem)
}

// eachRun calls fn once for each maximal contiguous byte run of count
// elements of dm laid out from byte offset base, in packed order: off is
// the run's offset in the buffer, pos its offset in the packed bytes and
// n its length. A segment that starts where the run before it ended joins
// that run, so a transfer of a shared buffer takes one buffer lock per
// run, not per element.
// A map whose segments fill its extent (every predefined type, and
// TypeContiguous of one) is one run, found without visiting its elements.
func eachRun(dm memory.DataMap, base uint64, count int, fn func(off, pos, n uint64)) {
	if count <= 0 {
		return
	}
	if dm.FillsExtent() {
		fn(base, 0, uint64(count)*dm.Extent)
		return
	}
	var start, n, pos uint64
	for e := 0; e < count; e++ {
		origin := base + uint64(e)*dm.Extent
		for _, s := range dm.Segments {
			if at := origin + s.Disp; at != start+n {
				if n > 0 {
					fn(start, pos, n)
					pos += n
				}
				start, n = at, 0
			}
			n += s.Len
		}
	}
	if n > 0 {
		fn(start, pos, n)
	}
}

// pack reads count elements of type d from buf starting at byte offset off
// into a new contiguous byte slice, using untracked runtime reads.
func pack(buf *memory.Buffer, off uint64, d *Datatype, count int) []byte {
	return packInto(make([]byte, d.dm.TileBytes(count)), buf, off, d, count)
}

// packInto is pack into the front of dst, whose capacity must hold the
// packed bytes; it returns that part of dst.
func packInto(dst []byte, buf *memory.Buffer, off uint64, d *Datatype, count int) []byte {
	out := dst[:d.dm.TileBytes(count)]
	eachRun(d.dm, off, count, func(at, pos, n uint64) {
		buf.ReadRaw(at, out[pos:pos+n])
	})
	return out
}

// unpack writes packed contiguous bytes into count elements of type d in
// buf starting at byte offset off, using untracked runtime writes.
func unpack(buf *memory.Buffer, off uint64, d *Datatype, count int, packed []byte) {
	eachRun(d.dm, off, count, func(at, pos, n uint64) {
		buf.WriteRaw(at, packed[pos:pos+n])
	})
}

// combine applies dst[i] = dst[i] OP src[i] lane-wise for the predefined
// element type. Both slices must be lane-aligned and equal length.
func combine(dst, src []byte, elem int32, op trace.AccOp) {
	if op == trace.OpReplace {
		copy(dst, src)
		return
	}
	switch elem {
	case trace.TypeFloat64:
		for i := 0; i+8 <= len(dst); i += 8 {
			d := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			s := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(combineF64(d, s, op)))
		}
	case trace.TypeFloat32:
		for i := 0; i+4 <= len(dst); i += 4 {
			d := math.Float32frombits(binary.LittleEndian.Uint32(dst[i:]))
			s := math.Float32frombits(binary.LittleEndian.Uint32(src[i:]))
			binary.LittleEndian.PutUint32(dst[i:], math.Float32bits(float32(combineF64(float64(d), float64(s), op))))
		}
	case trace.TypeInt32:
		for i := 0; i+4 <= len(dst); i += 4 {
			d := int64(int32(binary.LittleEndian.Uint32(dst[i:])))
			s := int64(int32(binary.LittleEndian.Uint32(src[i:])))
			binary.LittleEndian.PutUint32(dst[i:], uint32(int32(combineI64(d, s, op))))
		}
	case trace.TypeInt64:
		for i := 0; i+8 <= len(dst); i += 8 {
			d := int64(binary.LittleEndian.Uint64(dst[i:]))
			s := int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(combineI64(d, s, op)))
		}
	case trace.TypeByte:
		for i := range dst {
			dst[i] = byte(combineI64(int64(dst[i]), int64(src[i]), op))
		}
	default:
		panic(fmt.Sprintf("mpi: combine on non-arithmetic element type %d", elem))
	}
}

func combineF64(d, s float64, op trace.AccOp) float64 {
	switch op {
	case trace.OpSum:
		return d + s
	case trace.OpProd:
		return d * s
	case trace.OpMax:
		return math.Max(d, s)
	case trace.OpMin:
		return math.Min(d, s)
	default:
		panic(fmt.Sprintf("mpi: unsupported reduction op %v", op))
	}
}

func combineI64(d, s int64, op trace.AccOp) int64 {
	switch op {
	case trace.OpSum:
		return d + s
	case trace.OpProd:
		return d * s
	case trace.OpMax:
		if d > s {
			return d
		}
		return s
	case trace.OpMin:
		if d < s {
			return d
		}
		return s
	default:
		panic(fmt.Sprintf("mpi: unsupported reduction op %v", op))
	}
}
