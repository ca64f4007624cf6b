package trace

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindLoad:       "load",
		KindPut:        "Put",
		KindWinFence:   "Win_fence",
		KindBarrier:    "Barrier",
		KindCommCreate: "Comm_create",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind should print numerically")
	}
}

func TestKindPredicates(t *testing.T) {
	type pred struct {
		local, rma, rmaSync, coll, p2p, sync bool
	}
	cases := map[Kind]pred{
		KindLoad:        {local: true},
		KindStore:       {local: true},
		KindPut:         {rma: true},
		KindGet:         {rma: true},
		KindAccumulate:  {rma: true},
		KindWinFence:    {rmaSync: true, coll: true, sync: true},
		KindWinLock:     {rmaSync: true, sync: true},
		KindWinUnlock:   {rmaSync: true, sync: true},
		KindWinPost:     {rmaSync: true, sync: true},
		KindWinStart:    {rmaSync: true, sync: true},
		KindWinComplete: {rmaSync: true, sync: true},
		KindWinWait:     {rmaSync: true, sync: true},
		KindSend:        {p2p: true, sync: true},
		KindRecv:        {p2p: true, sync: true},
		KindIsend:       {p2p: true, sync: true},
		KindIrecv:       {p2p: true, sync: true},
		KindWaitReq:     {sync: true},
		KindBarrier:     {coll: true, sync: true},
		KindBcast:       {coll: true, sync: true},
		KindAllreduce:   {coll: true, sync: true},
		KindWinCreate:   {coll: true, sync: true},
		KindWinFree:     {coll: true, sync: true},
		KindCommCreate:  {coll: true, sync: true},
		KindTypeCreate:  {},
	}
	for k, want := range cases {
		if k.IsLocalAccess() != want.local {
			t.Errorf("%v.IsLocalAccess() = %v", k, k.IsLocalAccess())
		}
		if k.IsRMAComm() != want.rma {
			t.Errorf("%v.IsRMAComm() = %v", k, k.IsRMAComm())
		}
		if k.IsRMASync() != want.rmaSync {
			t.Errorf("%v.IsRMASync() = %v", k, k.IsRMASync())
		}
		if k.IsCollective() != want.coll {
			t.Errorf("%v.IsCollective() = %v", k, k.IsCollective())
		}
		if k.IsP2P() != want.p2p {
			t.Errorf("%v.IsP2P() = %v", k, k.IsP2P())
		}
		if k.IsSync() != want.sync && !want.coll && !want.rmaSync {
			t.Errorf("%v.IsSync() = %v", k, k.IsSync())
		}
	}
}

func TestEventLocAndString(t *testing.T) {
	ev := Event{Kind: KindPut, Rank: 2, Seq: 5, File: "/a/b/app.go", Line: 42,
		Win: 1, Target: 3, OriginAddr: 0x2000, OriginCount: 4, OriginType: TypeInt32}
	if ev.Loc() != "app.go:42" {
		t.Errorf("Loc = %q", ev.Loc())
	}
	s := ev.String()
	for _, want := range []string{"P2/5", "Put", "win=1", "target=3", "app.go:42"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if (&Event{}).Loc() != "?" {
		t.Error("empty event Loc should be ?")
	}
	lockEv := Event{Kind: KindWinLock, Lock: LockExclusive}
	if !strings.Contains(lockEv.String(), "exclusive") {
		t.Errorf("lock String() = %q", lockEv.String())
	}
}

func TestEventID(t *testing.T) {
	ev := Event{Rank: 3, Seq: 9}
	if ev.ID() != (ID{Rank: 3, Seq: 9}) {
		t.Errorf("ID = %+v", ev.ID())
	}
}

func TestPredefinedTypes(t *testing.T) {
	for _, c := range []struct {
		id   int32
		size uint64
	}{
		{TypeByte, 1}, {TypeInt32, 4}, {TypeInt64, 8}, {TypeFloat32, 4}, {TypeFloat64, 8},
	} {
		dm, ok := PredefinedType(c.id)
		if !ok {
			t.Errorf("type %d not predefined", c.id)
			continue
		}
		if dm.Size() != c.size {
			t.Errorf("type %d size = %d, want %d", c.id, dm.Size(), c.size)
		}
	}
	if _, ok := PredefinedType(TypeUserBase); ok {
		t.Error("user type ids must not be predefined")
	}
	if IsPredefinedType(0) {
		t.Error("type id 0 must not be predefined")
	}
}

func TestLockAndAccOpStrings(t *testing.T) {
	if LockShared.String() != "shared" || LockExclusive.String() != "exclusive" || LockNone.String() != "none" {
		t.Error("LockType strings wrong")
	}
	if OpSum.String() != "SUM" || OpReplace.String() != "REPLACE" {
		t.Error("AccOp strings wrong")
	}
}

// TestEventLayout pins Event's memory layout on 64-bit hosts: 152 bytes,
// and every pointer-bearing field ahead of every pointer-free one, so the
// garbage collector scans only the prefix up to Def. A field that brings
// back padding, or a scalar placed ahead of the pointers, fails it.
func TestEventLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Event{}); got != 152 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 152", got)
	}
	typ := reflect.TypeOf(Event{})
	firstFree := ""
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch {
		case !hasPointers(f.Type):
			if firstFree == "" {
				firstFree = f.Name
			}
		case firstFree != "":
			t.Errorf("pointer-bearing field %s (offset %d) comes after pointer-free field %s",
				f.Name, f.Offset, firstFree)
		}
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
