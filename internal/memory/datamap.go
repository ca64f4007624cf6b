package memory

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Segment is one contiguous piece of a data-map: Len bytes starting Disp
// bytes from the element origin (paper §IV-C-1c).
type Segment struct {
	Disp uint64
	Len  uint64
}

// DataMap describes the byte layout of one element of an MPI datatype as a
// sorted list of disjoint segments plus the type extent (the stride between
// consecutive elements when a count > 1 is used).
//
// MPI_INT is {Segments: [{0,4}], Extent: 4}. A derived type of two ints
// separated by an 8-byte gap is {Segments: [{0,4},{12,4}], Extent: 16}.
type DataMap struct {
	Segments []Segment
	Extent   uint64
}

// Contig returns the data-map of a contiguous type of n bytes.
func Contig(n uint64) DataMap {
	if n == 0 {
		return DataMap{}
	}
	return DataMap{Segments: []Segment{{Disp: 0, Len: n}}, Extent: n}
}

// Size returns the number of bytes actually touched by one element
// (the sum of segment lengths, not the extent).
func (dm DataMap) Size() uint64 {
	var n uint64
	for _, s := range dm.Segments {
		n += s.Len
	}
	return n
}

// Span returns the distance from the first touched byte to one past the
// last touched byte of a single element.
func (dm DataMap) Span() uint64 {
	if len(dm.Segments) == 0 {
		return 0
	}
	first := dm.Segments[0].Disp
	last := dm.Segments[len(dm.Segments)-1]
	return last.Disp + last.Len - first
}

// Normalize sorts segments by displacement and merges adjacent or
// overlapping ones, returning a canonical equivalent map.
func (dm DataMap) Normalize() DataMap {
	if len(dm.Segments) == 0 {
		return DataMap{Extent: dm.Extent}
	}
	segs := make([]Segment, len(dm.Segments))
	copy(segs, dm.Segments)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Disp < segs[j].Disp })
	out := segs[:1]
	for _, s := range segs[1:] {
		top := &out[len(out)-1]
		if s.Disp <= top.Disp+top.Len { // adjacent or overlapping
			end := s.Disp + s.Len
			if end > top.Disp+top.Len {
				top.Len = end - top.Disp
			}
			continue
		}
		out = append(out, s)
	}
	ext := dm.Extent
	if ext == 0 {
		ext = out[len(out)-1].Disp + out[len(out)-1].Len
	}
	return DataMap{Segments: out, Extent: ext}
}

// Tile instantiates count elements of the datatype at simulated address
// base and returns the touched byte intervals in ascending order; it is
// AppendTile(nil, base, count).
func (dm DataMap) Tile(base uint64, count int) []Interval {
	return dm.AppendTile(nil, base, count)
}

// AppendTile appends the byte intervals of count elements of the datatype
// at simulated address base to dst and returns the extended slice. The
// appended intervals are in ascending order: the tile is walked by
// contiguous run, a segment that starts where the run before it ended
// joining that run, and a map whose segments are out of order, or whose
// extent is smaller than its span, is sorted and merged so that no
// appended interval starts below the end of the one before it. A map
// whose joined segments fill its extent, as every predefined type's do,
// tiles into one interval for any count, without visiting the elements.
func (dm DataMap) AppendTile(dst []Interval, base uint64, count int) []Interval {
	if count <= 0 || len(dm.Segments) == 0 {
		return dst
	}
	if dm.FillsExtent() {
		return append(dst, Iv(base, uint64(count)*dm.Extent))
	}
	start := len(dst)
	dst = slices.Grow(dst, count*len(dm.Segments))
	ordered := true
	for e := 0; e < count; e++ {
		origin := base + uint64(e)*dm.Extent
		for _, s := range dm.Segments {
			iv := Iv(origin+s.Disp, s.Len)
			if n := len(dst); n > start {
				if prev := &dst[n-1]; prev.Hi == iv.Lo {
					prev.Hi = iv.Hi // joins the run
					continue
				} else if iv.Lo < prev.Hi {
					ordered = false
				}
			}
			dst = append(dst, iv)
		}
	}
	if !ordered {
		dst = dst[:start+len(mergeSorted(dst[start:]))]
	}
	return dst
}

// FillsExtent reports whether the segments, joined in order, form one
// run from 0 to a non-zero extent: each starts where the one before it
// ended. Then every element's run starts where the one before it ended,
// and count elements are one contiguous run of count × extent bytes.
func (dm DataMap) FillsExtent() bool {
	var end uint64
	for _, s := range dm.Segments {
		if s.Disp != end {
			return false
		}
		end += s.Len
	}
	return end == dm.Extent && end > 0
}

// mergeSorted sorts ivs by start and merges overlapping or adjacent
// intervals in place, returning the merged prefix.
func mergeSorted(ivs []Interval) []Interval {
	slices.SortFunc(ivs, func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		if top := &out[len(out)-1]; iv.Lo <= top.Hi {
			top.Hi = max(top.Hi, iv.Hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// TileBytes returns Size()*count, the bytes moved by a count-element access.
func (dm DataMap) TileBytes(count int) uint64 {
	if count <= 0 {
		return 0
	}
	return dm.Size() * uint64(count)
}

func (dm DataMap) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, s := range dm.Segments {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d,%d)", s.Disp, s.Len)
	}
	fmt.Fprintf(&b, "} ext=%d", dm.Extent)
	return b.String()
}
