package memory

import (
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Iv(100, 10)
	if iv.Lo != 100 || iv.Hi != 110 {
		t.Fatalf("Iv(100,10) = %v", iv)
	}
	if iv.Empty() {
		t.Error("non-empty interval reported Empty")
	}
	if !(Interval{}).Empty() {
		t.Error("zero interval should be empty")
	}
	if !(Interval{Lo: 5, Hi: 5}).Empty() {
		t.Error("degenerate interval should be empty")
	}
}

func TestIntervalOverlaps(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Iv(0, 10), Iv(5, 10), true},
		{Iv(0, 10), Iv(10, 10), false}, // adjacent, half-open
		{Iv(0, 10), Iv(20, 10), false},
		{Iv(5, 1), Iv(5, 1), true},
		{Iv(0, 0), Iv(0, 10), false}, // empty never overlaps
		{Iv(3, 100), Iv(50, 1), true},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestIntervalIntersect(t *testing.T) {
	x, ok := Iv(0, 10).Intersect(Iv(5, 10))
	if !ok || x != Iv(5, 5) {
		t.Errorf("Intersect = %v,%v; want [5,10),true", x, ok)
	}
	if _, ok := Iv(0, 10).Intersect(Iv(10, 5)); ok {
		t.Error("adjacent intervals must not intersect")
	}
}

func TestIntervalOverlapEquivalentToIntersect(t *testing.T) {
	f := func(a, b uint32, la, lb uint8) bool {
		x := Iv(uint64(a), uint64(la))
		y := Iv(uint64(b), uint64(lb))
		_, ok := x.Intersect(y)
		return ok == x.Overlaps(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
