package memory

import (
	"reflect"
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
