package memory

import "strconv"

// Interval is a half-open byte range [Lo, Hi) in a simulated address space.
// The zero Interval is empty.
type Interval struct {
	Lo, Hi uint64
}

// Iv constructs the interval [lo, lo+size).
func Iv(lo, size uint64) Interval { return Interval{Lo: lo, Hi: lo + size} }

// Empty reports whether the interval contains no bytes.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Overlaps reports whether iv and o share at least one byte.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Lo < o.Hi && o.Lo < iv.Hi
}

// Intersect returns the overlap of iv and o and whether it is non-empty.
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	r := Interval{Lo: max64(iv.Lo, o.Lo), Hi: min64(iv.Hi, o.Hi)}
	if r.Empty() {
		return Interval{}, false
	}
	return r, true
}

func (iv Interval) String() string { return string(iv.Append(nil)) }

// Append appends the interval as String renders it, "[0xlo,0xhi)", to b.
func (iv Interval) Append(b []byte) []byte {
	b = append(b, "[0x"...)
	b = strconv.AppendUint(b, iv.Lo, 16)
	b = append(b, ",0x"...)
	b = strconv.AppendUint(b, iv.Hi, 16)
	return append(b, ')')
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
