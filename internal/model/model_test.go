package model

import (
	"reflect"
	"testing"

	"repro/internal/memory"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func TestBuildRegistries(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	// Rank 0 creates a derived type; all ranks create window 1; ranks 1,2
	// form a sub-communicator 5.
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase,
		TypeMap: memory.DataMap{Segments: []memory.Segment{{Disp: 0, Len: 4}, {Disp: 12, Len: 4}}, Extent: 16}}})
	b.WinCreate(1, 0x1000, 64)
	b.Add(1, trace.Event{Kind: trace.KindCommCreate, Comm: 5, Def: &trace.Def{Members: []int32{1, 2}}})
	b.Add(2, trace.Event{Kind: trace.KindCommCreate, Comm: 5, Def: &trace.Def{Members: []int32{1, 2}}})

	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}

	// Implicit world communicator.
	world, err := m.Comm(0)
	if err != nil || len(world.Members) != 3 {
		t.Fatalf("world comm: %v %v", world, err)
	}
	w2, err := world.World(2)
	if err != nil || w2 != 2 {
		t.Errorf("world translate: %d %v", w2, err)
	}

	// User communicator: relative rank 1 is world rank 2.
	sub, err := m.Comm(5)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sub.World(1); got != 2 {
		t.Errorf("sub comm translate = %d", got)
	}
	if _, err := sub.World(9); err == nil {
		t.Error("out-of-range rel rank must error")
	}

	// Window registry.
	wi, err := m.Win(1)
	if err != nil {
		t.Fatal(err)
	}
	if wi.Comm != 0 || len(wi.Locals) != 3 {
		t.Errorf("win info = %+v", wi)
	}
	if wi.Locals[1].Size != 64 || wi.Locals[1].DispUnit != 1 {
		t.Errorf("win local = %+v", wi.Locals[1])
	}

	// Datatype registry: predefined and user.
	dm, err := m.Type(0, trace.TypeFloat64)
	if err != nil || dm.Size() != 8 {
		t.Errorf("predefined type: %v %v", dm, err)
	}
	dm, err = m.Type(0, trace.TypeUserBase)
	if err != nil || dm.Size() != 8 || len(dm.Segments) != 2 {
		t.Errorf("user type: %v %v", dm, err)
	}
	// User type ids are per defining rank.
	if _, err := m.Type(1, trace.TypeUserBase); err == nil {
		t.Error("rank 1 must not see rank 0's user type")
	}
	if _, err := m.Comm(99); err == nil {
		t.Error("unknown comm must error")
	}
	if _, err := m.Win(99); err == nil {
		t.Error("unknown window must error")
	}
}

func TestBuildRejectsConflicts(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.Add(0, trace.Event{Kind: trace.KindCommCreate, Comm: 5, Def: &trace.Def{Members: []int32{0, 1}}})
	b.Add(1, trace.Event{Kind: trace.KindCommCreate, Comm: 5, Def: &trace.Def{Members: []int32{1, 0}}})
	if _, err := Build(b.Set()); err == nil {
		t.Error("conflicting comm membership must error")
	}

	b = testutil.NewTraceBuilder(1)
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase, TypeMap: memory.Contig(4)}})
	b.Add(0, trace.Event{Kind: trace.KindTypeCreate, Def: &trace.Def{TypeID: trace.TypeUserBase, TypeMap: memory.Contig(8)}})
	if _, err := Build(b.Set()); err == nil {
		t.Error("datatype redefinition must error")
	}

	b = testutil.NewTraceBuilder(1)
	b.Add(0, trace.Event{Kind: trace.KindWinCreate, Win: 1, Comm: 0, Def: &trace.Def{WinBase: 0, WinSize: 8, DispUnit: 1}})
	b.Add(0, trace.Event{Kind: trace.KindWinCreate, Win: 1, Comm: 0, Def: &trace.Def{WinBase: 64, WinSize: 8, DispUnit: 1}})
	if _, err := Build(b.Set()); err == nil {
		t.Error("duplicate window definition must error")
	}
}

func TestFootprints(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(7, 0x2000, 128) // disp unit 1
	putID := b.Add(0, trace.Event{
		Kind: trace.KindPut, Win: 7, Target: 1,
		OriginAddr: 0x500, OriginType: trace.TypeFloat64, OriginCount: 2,
		TargetDisp: 16, TargetType: trace.TypeFloat64, TargetCount: 2,
	})
	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	put := m.Set.Get(putID)

	tw, err := m.TargetWorld(put)
	if err != nil || tw != 1 {
		t.Errorf("target world = %d, %v", tw, err)
	}
	tf, err := m.TargetFootprint(put)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Rank != 1 || len(tf.Intervals) != 1 || tf.Intervals[0] != memory.Iv(0x2000+16, 16) {
		t.Errorf("target footprint = %+v", tf)
	}
	of, err := m.OriginFootprint(put)
	if err != nil {
		t.Fatal(err)
	}
	if of.Rank != 0 || of.Intervals[0] != memory.Iv(0x500, 16) {
		t.Errorf("origin footprint = %+v", of)
	}

	// Footprint overlap requires the same rank.
	a := Footprint{Rank: 0, Intervals: []memory.Interval{memory.Iv(0, 10)}}
	c := Footprint{Rank: 1, Intervals: []memory.Interval{memory.Iv(0, 10)}}
	if _, ok := a.Overlaps(c); ok {
		t.Error("different ranks must never overlap")
	}
	d := Footprint{Rank: 0, Intervals: []memory.Interval{memory.Iv(5, 1)}}
	if iv, ok := a.Overlaps(d); !ok || iv != memory.Iv(5, 1) {
		t.Errorf("overlap = %v %v", iv, ok)
	}
}

func TestAccessFootprintAndWindowAt(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(3, 0x4000, 64)
	ld := b.Add(1, trace.Event{Kind: trace.KindLoad, Addr: 0x4010, Size: 8})
	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	f := AccessFootprint(m.Set.Get(ld))
	if f.Rank != 1 || f.Intervals[0] != memory.Iv(0x4010, 8) {
		t.Errorf("access footprint = %+v", f)
	}
	if wins := m.WindowsAt(1, f.Intervals[0]); len(wins) != 1 || wins[0].ID != 3 {
		t.Errorf("WindowsAt = %v", wins)
	}
	if wins := m.WindowsAt(1, memory.Iv(0x9000, 4)); wins != nil {
		t.Errorf("address outside windows matched %v", wins)
	}
}

// Windows may expose the same memory: WindowsAt returns every window the
// interval touches, in ID order, whatever the creation or address order.
func TestWindowsAtOverlappingWindows(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(7, 0x4000, 64)
	b.WinCreate(2, 0x4000, 64)
	b.WinCreate(5, 0x4020, 64) // overlaps the upper half of the first two
	b.WinCreate(9, 0x3000, 16) // ends far below, must not stop the scan early
	b.WinCreate(4, 0x8000, 0)  // empty: overlaps nothing
	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	ids := func(iv memory.Interval) []int32 {
		var out []int32
		for _, wi := range m.WindowsAt(1, iv) {
			out = append(out, wi.ID)
		}
		return out
	}
	for _, c := range []struct {
		iv   memory.Interval
		want []int32
	}{
		{memory.Iv(0x4000, 8), []int32{2, 7}},
		{memory.Iv(0x4030, 4), []int32{2, 5, 7}},
		{memory.Iv(0x4050, 4), []int32{5}},
		{memory.Iv(0x3008, 4), []int32{9}},
		{memory.Iv(0x3ff0, 0x20), []int32{2, 7}},
		{memory.Iv(0x8000, 4), nil},
		{memory.Iv(0x4000, 0), nil},
	} {
		if got := ids(c.iv); !reflect.DeepEqual(got, c.want) {
			t.Errorf("WindowsAt(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
	if got := m.WindowsAt(5, memory.Iv(0x4000, 8)); got != nil {
		t.Errorf("rank outside the set matched %v", got)
	}
}

func TestTargetFootprintErrors(t *testing.T) {
	b := testutil.NewTraceBuilder(2)
	bar := b.Add(0, trace.Event{Kind: trace.KindBarrier, Comm: 0})
	b.Add(1, trace.Event{Kind: trace.KindBarrier, Comm: 0})
	put := b.Add(0, trace.Event{Kind: trace.KindPut, Win: 42, Target: 1,
		OriginType: trace.TypeByte, TargetType: trace.TypeByte, OriginCount: 1, TargetCount: 1})
	m, err := Build(b.Set())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TargetFootprint(m.Set.Get(put)); err == nil {
		t.Error("unknown window must error")
	}
	if _, err := m.TargetFootprint(m.Set.Get(bar)); err == nil {
		t.Error("non-RMA event must error")
	}
}
