package memory

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestContig(t *testing.T) {
	dm := Contig(4)
	if dm.Size() != 4 || dm.Extent != 4 || len(dm.Segments) != 1 {
		t.Fatalf("Contig(4) = %v", dm)
	}
	if Contig(0).Size() != 0 {
		t.Error("Contig(0) should be empty")
	}
}

func TestDataMapPaperExample(t *testing.T) {
	// Paper §IV-C-1c: two MPI_INTs separated by an 8-byte gap is
	// {(0,4),(12,4)}.
	dm := DataMap{Segments: []Segment{{0, 4}, {12, 4}}, Extent: 16}
	if dm.Size() != 8 {
		t.Errorf("Size = %d, want 8", dm.Size())
	}
	if dm.Span() != 16 {
		t.Errorf("Span = %d, want 16", dm.Span())
	}
	ivs := dm.Tile(1000, 2)
	// Element 1 starts at 1016, so element 0's (12,4) segment [1012,1016)
	// coalesces with element 1's (0,4) segment [1016,1020).
	want := []Interval{Iv(1000, 4), Iv(1012, 8), Iv(1028, 4)}
	if !reflect.DeepEqual(ivs, want) {
		t.Errorf("Tile = %v, want %v", ivs, want)
	}
}

func TestDataMapNormalize(t *testing.T) {
	dm := DataMap{Segments: []Segment{{8, 4}, {0, 4}, {4, 4}, {20, 2}}}
	n := dm.Normalize()
	want := []Segment{{0, 12}, {20, 2}}
	if !reflect.DeepEqual(n.Segments, want) {
		t.Errorf("Normalize = %v, want %v", n.Segments, want)
	}
	if n.Extent != 22 {
		t.Errorf("Extent defaulted to %d, want 22", n.Extent)
	}
	// Overlapping segments merge too.
	n2 := DataMap{Segments: []Segment{{0, 10}, {5, 10}}}.Normalize()
	if !reflect.DeepEqual(n2.Segments, []Segment{{0, 15}}) {
		t.Errorf("overlap merge = %v", n2.Segments)
	}
}

func TestDataMapTileCoalesces(t *testing.T) {
	// Contiguous elements tile into a single interval.
	ivs := Contig(8).Tile(0, 4)
	if len(ivs) != 1 || ivs[0] != Iv(0, 32) {
		t.Errorf("contig tile = %v", ivs)
	}
	// Extent > size leaves gaps.
	dm := DataMap{Segments: []Segment{{0, 4}}, Extent: 8}
	ivs = dm.Tile(0, 3)
	want := []Interval{Iv(0, 4), Iv(8, 4), Iv(16, 4)}
	if !reflect.DeepEqual(ivs, want) {
		t.Errorf("strided tile = %v, want %v", ivs, want)
	}
}

// Property: Tile's intervals cover exactly the bytes a byte-by-byte walk
// of the elements' segments touches, whatever the segment order, extent
// or overlap between elements.
func TestTileMatchesByteModel(t *testing.T) {
	f := func(disp1, len1, disp2, len2, ext uint8, base uint16, count uint8) bool {
		dm := DataMap{Segments: []Segment{{uint64(disp1 % 24), uint64(len1%8 + 1)}, {uint64(disp2 % 24), uint64(len2%8 + 1)}},
			Extent: uint64(ext % 32)}
		n := int(count % 6)
		want := map[uint64]bool{}
		for e := 0; e < n; e++ {
			origin := uint64(base) + uint64(e)*dm.Extent
			for _, s := range dm.Segments {
				for b := uint64(0); b < s.Len; b++ {
					want[origin+s.Disp+b] = true
				}
			}
		}
		got := map[uint64]bool{}
		for _, iv := range dm.Tile(uint64(base), n) {
			for b := iv.Lo; b < iv.Hi; b++ {
				if got[b] {
					return false // intervals overlap
				}
				got[b] = true
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: Tile covers exactly TileBytes bytes and intervals are sorted.
func TestTileInvariant(t *testing.T) {
	f := func(segs []uint16, count uint8) bool {
		if len(segs) == 0 {
			return true
		}
		if len(segs) > 4 {
			segs = segs[:4]
		}
		dm := DataMap{}
		for i, s := range segs {
			dm.Segments = append(dm.Segments, Segment{
				Disp: uint64(i*32) + uint64(s%16),
				Len:  uint64(s/16)%8 + 1,
			})
		}
		dm.Extent = dm.Span() + 8
		n := int(count%5) + 1
		ivs := dm.Tile(500, n)
		var total uint64
		var prev Interval
		for i, iv := range ivs {
			if iv.Empty() {
				return false
			}
			if i > 0 && iv.Lo < prev.Hi {
				return false
			}
			total += iv.Hi - iv.Lo
			prev = iv
		}
		return total == dm.TileBytes(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A map whose segments are out of order, or whose extent is smaller than
// its span, still tiles into ascending, disjoint intervals, so a merge
// walk over two footprints finds every overlap.
func TestAppendTileOrdersUnsortedMaps(t *testing.T) {
	narrow := DataMap{Segments: []Segment{{0, 4}, {12, 4}}, Extent: 8}
	// Element 1's (0,4) segment [0x508,0x50c) starts below the end of
	// element 0's (12,4) segment [0x50c,0x510): the two merge.
	want := []Interval{Iv(0x500, 4), Iv(0x508, 8), Iv(0x514, 4)}
	if got := narrow.Tile(0x500, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("narrow extent: Tile = %v, want %v", got, want)
	}

	reversed := DataMap{Segments: []Segment{{8, 4}, {0, 2}}, Extent: 16}
	want = []Interval{Iv(0, 2), Iv(8, 4), Iv(16, 2), Iv(24, 4)}
	if got := reversed.Tile(0, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("reversed segments: Tile = %v, want %v", got, want)
	}

	// AppendTile leaves what dst already holds alone, even when that
	// ends above the appended intervals.
	dst := []Interval{Iv(0x900, 4)}
	got := narrow.AppendTile(dst, 0x500, 2)
	if want := append([]Interval{Iv(0x900, 4)}, narrow.Tile(0x500, 2)...); !reflect.DeepEqual(got, want) {
		t.Errorf("AppendTile = %v, want %v", got, want)
	}
}

// Tile is AppendTile onto nil, and appending never disturbs the prefix.
func TestAppendTileMatchesTile(t *testing.T) {
	f := func(disp1, len1, disp2, len2, ext uint8, base uint16, count uint8) bool {
		dm := DataMap{Segments: []Segment{{uint64(disp1), uint64(len1%16 + 1)}, {uint64(disp2), uint64(len2%16 + 1)}},
			Extent: uint64(ext)}
		n := int(count % 6)
		tile := dm.Tile(uint64(base), n)
		for i := 1; i < len(tile); i++ {
			if tile[i].Lo < tile[i-1].Hi {
				return false // not ascending and disjoint
			}
		}
		prefix := []Interval{Iv(1, 1), Iv(7, 3)}
		got := dm.AppendTile(append([]Interval(nil), prefix...), uint64(base), n)
		return reflect.DeepEqual(got[:2], prefix) && reflect.DeepEqual(got[2:], tile) ||
			len(tile) == 0 && len(got) == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refAppendTile is the per-element tiling AppendTile replaced, kept as its
// reference: every segment of every element in turn, each joining the
// interval before it when it starts where that one ends, then a sort and
// merge when some interval started below the end of the one before it.
func refAppendTile(dst []Interval, dm DataMap, base uint64, count int) []Interval {
	if count <= 0 || len(dm.Segments) == 0 {
		return dst
	}
	start := len(dst)
	ordered := true
	for e := 0; e < count; e++ {
		origin := base + uint64(e)*dm.Extent
		for _, s := range dm.Segments {
			iv := Iv(origin+s.Disp, s.Len)
			if n := len(dst); n > start {
				if prev := &dst[n-1]; prev.Hi == iv.Lo {
					prev.Hi = iv.Hi
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

// FuzzTileRuns holds AppendTile to the per-element reference on segment
// lists no constructor makes (unsorted, overlapping, empty or joined
// segments, any extent, maps that fill their extent and maps that do
// not), at counts up to 4,096 and at bases near 2^64, where a tile wraps.
// A spec byte of 128 or more starts its segment where the one before it
// ended; an extent of 0x8000 or more is the end of the last segment.
func FuzzTileRuns(f *testing.F) {
	f.Add([]byte{0, 8}, uint16(0x8000), uint16(4096), false, uint16(0))
	f.Add([]byte{0, 4, 128, 4}, uint16(0x8000), uint16(7), true, uint16(5))
	f.Add([]byte{0, 4, 12, 4}, uint16(16), uint16(3), false, uint16(1000))
	f.Add([]byte{0, 4, 12, 4}, uint16(8), uint16(2), true, uint16(0))
	f.Add([]byte{8, 4, 0, 2}, uint16(16), uint16(2), false, uint16(0))
	f.Add([]byte{0, 0, 128, 0}, uint16(0x8000), uint16(3), true, uint16(1))
	f.Add([]byte{0, 255, 128, 255}, uint16(0x8000), uint16(4096), true, uint16(100))
	f.Fuzz(func(t *testing.T, spec []byte, extent, count uint16, high bool, base uint16) {
		var dm DataMap
		var end uint64
		for i := 0; i+1 < len(spec) && len(dm.Segments) < 8; i += 2 {
			disp := uint64(spec[i] % 128)
			if spec[i] >= 128 {
				disp = end
			}
			dm.Segments = append(dm.Segments, Segment{Disp: disp, Len: uint64(spec[i+1])})
			end = disp + uint64(spec[i+1])
		}
		dm.Extent = uint64(extent % 512)
		if extent >= 0x8000 {
			dm.Extent = end
		}
		n := int(count % 4097)
		at := uint64(base)
		if high {
			at = math.MaxUint64 - uint64(base)
		}
		prefix := []Interval{Iv(7, 3)}
		got := dm.AppendTile(slices.Clone(prefix), at, n)
		want := refAppendTile(slices.Clone(prefix), dm, at, n)
		if !slices.Equal(got, want) {
			t.Fatalf("%v ×%d at %#x:\n got %v\nwant %v", dm, n, at, got, want)
		}
	})
}

// A predefined type tiles into one interval at any count, without the
// per-element loop or a reservation of count intervals: a count of
// 2^31-1, as a damaged trace may carry, appends one interval and grows
// dst by no more.
func TestTileContiguousAnyCount(t *testing.T) {
	const count = math.MaxInt32
	for _, dm := range []DataMap{
		Contig(8),
		{Segments: []Segment{{0, 4}, {4, 4}}, Extent: 8}, // joined segments fill the extent too
	} {
		dst := make([]Interval, 1, 2)
		got := dm.AppendTile(dst, 0x1000, count)
		if want := []Interval{{}, Iv(0x1000, 8*count)}; !slices.Equal(got, want) || cap(got) != 2 {
			t.Errorf("%v ×%d: AppendTile = %v (cap %d), want %v in the same array", dm, count, got, cap(got), want)
		}
	}
}
