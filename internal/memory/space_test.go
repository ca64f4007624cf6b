package memory

import (
	"strings"
	"testing"
)

func TestAddressSpaceAllocDisjoint(t *testing.T) {
	as := NewAddressSpace()
	a := as.Alloc(100, "a")
	b := as.Alloc(1, "b")
	c := as.Alloc(0, "c")
	d := as.Alloc(64, "d")
	bufs := []*Buffer{a, b, c, d}
	for i := range bufs {
		for j := i + 1; j < len(bufs); j++ {
			if bufs[i].Interval().Overlaps(bufs[j].Interval()) {
				t.Errorf("buffers %q and %q overlap: %v %v",
					bufs[i].Name(), bufs[j].Name(), bufs[i].Interval(), bufs[j].Interval())
			}
		}
	}
	if a.Base() < spaceBase {
		t.Errorf("first buffer below space base: %#x", a.Base())
	}
	if a.Base()%allocAlign != 0 || d.Base()%allocAlign != 0 {
		t.Error("buffers not aligned")
	}
}

func TestBufferTypedAccessors(t *testing.T) {
	as := NewAddressSpace()
	b := as.Alloc(64, "buf")
	b.SetInt32(0, -42)
	if got := b.Int32At(0); got != -42 {
		t.Errorf("Int32 roundtrip = %d", got)
	}
	b.SetInt64(8, 1<<40)
	if got := b.Int64At(8); got != 1<<40 {
		t.Errorf("Int64 roundtrip = %d", got)
	}
	b.SetFloat64(16, 3.5)
	if got := b.Float64At(16); got != 3.5 {
		t.Errorf("Float64 roundtrip = %g", got)
	}
	b.SetUint8(24, 0xAB)
	if got := b.Uint8At(24); got != 0xAB {
		t.Errorf("Uint8 roundtrip = %#x", got)
	}
	b.SetFloat64Slice(32, []float64{1, 2, 3})
	if got := b.Float64SliceAt(32, 3); got[0] != 1 || got[2] != 3 {
		t.Errorf("Float64Slice roundtrip = %v", got)
	}
	b.StoreBytes(56, []byte{9, 8})
	if got := b.LoadBytes(56, 2); got[0] != 9 || got[1] != 8 {
		t.Errorf("bytes roundtrip = %v", got)
	}
}

func TestBufferFill(t *testing.T) {
	as := NewAddressSpace()
	b := as.Alloc(8, "f")
	b.Fill(2, 4, 0xFF)
	raw := b.Bytes()
	want := []byte{0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0}
	for i := range want {
		if raw[i] != want[i] {
			t.Fatalf("Fill result %v, want %v", raw, want)
		}
	}
}

func TestBufferObserverReportsAccesses(t *testing.T) {
	as := NewAddressSpace()
	b := as.Alloc(64, "w")
	var got []Access
	b.SetObserver(ObserverFunc(func(buf *Buffer, a Access) {
		if buf != b {
			t.Error("observer got wrong buffer")
		}
		got = append(got, a)
	}))
	b.SetInt32(4, 7)
	_ = b.Int32At(4)
	_ = b.LoadBytes(0, 8)
	if len(got) != 3 {
		t.Fatalf("observed %d accesses, want 3", len(got))
	}
	if got[0].Kind != Store || got[0].Addr != b.Addr(4) || got[0].Size != 4 {
		t.Errorf("store access = %+v", got[0])
	}
	if got[1].Kind != Load || got[1].Size != 4 {
		t.Errorf("load access = %+v", got[1])
	}
	if got[2].Size != 8 || got[2].Addr != b.Base() {
		t.Errorf("bytes load access = %+v", got[2])
	}
	for _, a := range got {
		if !strings.HasSuffix(a.File, "space_test.go") || a.Line == 0 {
			t.Errorf("source location not captured: %+v", a)
		}
	}
	// Detach: no further observations.
	b.SetObserver(nil)
	b.SetInt32(0, 1)
	if len(got) != 3 {
		t.Error("detached observer still observed")
	}
}

func TestBufferOutOfRangePanics(t *testing.T) {
	as := NewAddressSpace()
	b := as.Alloc(4, "small")
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	b.SetInt64(0, 1) // 8 bytes into a 4-byte buffer
}

func TestAccessKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("AccessKind.String wrong")
	}
}

func TestBufferUntrackedBytesNotObserved(t *testing.T) {
	as := NewAddressSpace()
	b := as.Alloc(8, "raw")
	n := 0
	b.SetObserver(ObserverFunc(func(*Buffer, Access) { n++ }))
	copy(b.Bytes(), []byte{1, 2, 3}) // runtime copy: untracked
	if n != 0 {
		t.Error("Bytes() access must not be observed")
	}
}
