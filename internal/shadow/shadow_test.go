package shadow

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/memory"
)

// clock builds a vector clock literal.
func clock(vs ...int64) []int64 { return vs }

func collectQuery(st *Store, key VectorKey, q Query, fp []memory.Interval, mode Mode,
	modes map[int32]Mode) []int32 {
	var got []int32
	st.Query(key, q, fp, func(rank, class int32) Mode {
		if modes != nil {
			if m, ok := modes[rank]; ok {
				return m
			}
		}
		if rank == q.Rank {
			return ModeSkip
		}
		return mode
	}, func(p int32) { got = append(got, p) })
	return got
}

func TestDepotInternDense(t *testing.T) {
	d := NewDepot()
	a, fresh := d.Intern(1, "f.go", 10, "fn")
	if !fresh || a != 0 {
		t.Fatalf("first intern: id=%d fresh=%v", a, fresh)
	}
	b, fresh := d.Intern(1, "f.go", 10, "fn")
	if fresh || b != a {
		t.Fatalf("re-intern: id=%d fresh=%v", b, fresh)
	}
	c, fresh := d.Intern(2, "f.go", 10, "fn")
	if !fresh || c != 1 {
		t.Fatalf("distinct kind: id=%d fresh=%v", c, fresh)
	}
	if d.Len() != 2 {
		t.Fatalf("Len=%d", d.Len())
	}
}

// Two accesses from different ranks, concurrent, overlapping: the query
// sees the stored one through a cell.
func TestQueryOverlapBasic(t *testing.T) {
	st := NewStore()
	key := VectorKey{Win: 1, Target: 2}
	st.Insert(key, Access{Payload: 7, Rank: 0, Class: 0, Seq: 5,
		Clock: clock(-1, -1, -1), Target: []memory.Interval{{Lo: 100, Hi: 200}}})

	q := Query{Rank: 1, Seq: 3, Clock: clock(-1, -1, -1)}
	got := collectQuery(st, key, q, []memory.Interval{{Lo: 150, Hi: 160}}, ModeOverlap, nil)
	if !reflect.DeepEqual(got, []int32{7}) {
		t.Fatalf("got %v", got)
	}
	// Disjoint probe: no match.
	if got := collectQuery(st, key, q, []memory.Interval{{Lo: 300, Hi: 310}}, ModeOverlap, nil); got != nil {
		t.Fatalf("disjoint probe matched %v", got)
	}
	// Unknown vector: no match.
	if got := collectQuery(st, VectorKey{Win: 9, Target: 2}, q, []memory.Interval{{Lo: 150, Hi: 160}}, ModeOverlap, nil); got != nil {
		t.Fatalf("unknown vector matched %v", got)
	}
}

// Happens-before in either direction suppresses the match.
func TestQueryHappensBeforeSuppresses(t *testing.T) {
	st := NewStore()
	key := VectorKey{Win: 1, Target: 2}
	st.Insert(key, Access{Payload: 1, Rank: 0, Class: 0, Seq: 5,
		Clock: clock(-1, -1, -1), Target: []memory.Interval{{Lo: 0, Hi: 64}}})

	fp := []memory.Interval{{Lo: 0, Hi: 64}}
	// Query knows rank 0 up to seq 5: stored op happens-before the query.
	q := Query{Rank: 1, Seq: 9, Clock: clock(5, -1, -1)}
	if got := collectQuery(st, key, q, fp, ModeOverlap, nil); got != nil {
		t.Fatalf("stored-before-query matched %v", got)
	}
	// Stored op knows the query's rank up to seq 9: query happens-before
	// stored is impossible, but simulate the reverse edge by inserting an
	// op whose clock covers the query.
	st.Insert(key, Access{Payload: 2, Rank: 2, Class: 0, Seq: 1,
		Clock: clock(-1, 9, -1), Target: []memory.Interval{{Lo: 0, Hi: 64}}})
	q2 := Query{Rank: 1, Seq: 9, Clock: clock(5, -1, -1)}
	if got := collectQuery(st, key, q2, fp, ModeOverlap, nil); got != nil {
		t.Fatalf("query-before-stored matched %v", got)
	}
	// A genuinely concurrent query sees only the concurrent member.
	q3 := Query{Rank: 1, Seq: 20, Clock: clock(5, -1, -1)}
	got := collectQuery(st, key, q3, fp, ModeOverlap, nil)
	if !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("got %v", got)
	}
}

// ModeAll matches concurrent members regardless of byte overlap,
// including members with empty footprints; ModeSkip matches nothing.
func TestQueryModeAllAndSkip(t *testing.T) {
	st := NewStore()
	key := VectorKey{Win: 3, Target: 0}
	st.Insert(key, Access{Payload: 10, Rank: 1, Class: 0, Seq: 2,
		Clock: clock(-1, -1), Target: []memory.Interval{{Lo: 0, Hi: 8}}})
	st.Insert(key, Access{Payload: 11, Rank: 1, Class: 0, Seq: 4,
		Clock: clock(-1, -1), Target: nil}) // no footprint at all

	q := Query{Rank: 0, Seq: 1, Clock: clock(-1, -1)}
	probe := []memory.Interval{{Lo: 1000, Hi: 1008}} // overlaps nothing
	got := collectQuery(st, key, q, probe, ModeAll, nil)
	if !reflect.DeepEqual(got, []int32{10, 11}) {
		t.Fatalf("ModeAll got %v", got)
	}
	if got := collectQuery(st, key, q, probe, ModeSkip, nil); got != nil {
		t.Fatalf("ModeSkip matched %v", got)
	}
}

// A member spanning several cells is emitted once per query, and matches
// arrive in insertion order even when cells are visited out of order.
func TestQueryDedupAcrossCellsAndOrder(t *testing.T) {
	st := NewStore()
	key := VectorKey{Win: 1, Target: 0}
	// Member A covers [0,100); B covers [50,150) — splits A's cell.
	st.Insert(key, Access{Payload: 0, Rank: 1, Class: 0, Seq: 1,
		Clock: clock(-1, -1), Target: []memory.Interval{{Lo: 0, Hi: 100}}})
	st.Insert(key, Access{Payload: 1, Rank: 2, Class: 0, Seq: 1,
		Clock: clock(-1, -1), Target: []memory.Interval{{Lo: 50, Hi: 150}}})
	if c := st.Cells(key); c != 3 {
		t.Fatalf("cells=%d, want 3 ([0,50) [50,100) [100,150))", c)
	}

	q := Query{Rank: 0, Seq: 1, Clock: clock(-1, -1, -1)}
	// The probe touches both of A's cells and both of B's.
	got := collectQuery(st, key, q, []memory.Interval{{Lo: 0, Hi: 150}}, ModeOverlap, nil)
	if !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("got %v, want each member once in insertion order", got)
	}
	// Probe with two intervals hitting the same member twice: still once.
	got = collectQuery(st, key, q,
		[]memory.Interval{{Lo: 120, Hi: 130}, {Lo: 60, Hi: 70}}, ModeOverlap, nil)
	if !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("two-interval probe got %v", got)
	}
}

// The solo→list spill: the second same-(rank,class) member on the same
// bytes grows the inlined entry, and both match.
func TestCellGroupSpill(t *testing.T) {
	st := NewStore()
	key := VectorKey{Win: 1, Target: 0}
	for i := int32(0); i < 3; i++ {
		st.Insert(key, Access{Payload: i, Rank: 1, Class: 0, Seq: int64(i),
			Clock: clock(-1, -1), Target: []memory.Interval{{Lo: 0, Hi: 8}}})
	}
	if c := st.Cells(key); c != 1 {
		t.Fatalf("cells=%d, want 1", c)
	}
	if g := st.Groups(key); g != 1 {
		t.Fatalf("groups=%d, want 1", g)
	}
	q := Query{Rank: 0, Seq: 100, Clock: clock(-1, -1)}
	got := collectQuery(st, key, q, []memory.Interval{{Lo: 0, Hi: 8}}, ModeOverlap, nil)
	if !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Fatalf("got %v", got)
	}
}

// After a split, appending to one half must not clobber the other
// (the cloneEntries capacity cap on copied spilled lists).
func TestCellSplitAliasing(t *testing.T) {
	st := NewStore()
	key := VectorKey{Win: 1, Target: 0}
	// Two members of one group share a cell → a spilled member list.
	st.Insert(key, Access{Payload: 0, Rank: 1, Class: 0, Seq: 0,
		Clock: clock(-1, -1, -1, -1), Target: []memory.Interval{{Lo: 0, Hi: 100}}})
	st.Insert(key, Access{Payload: 1, Rank: 1, Class: 0, Seq: 1,
		Clock: clock(-1, -1, -1, -1), Target: []memory.Interval{{Lo: 0, Hi: 100}}})
	// Split the cell at 50, then add a member to the RIGHT half only.
	st.Insert(key, Access{Payload: 2, Rank: 2, Class: 0, Seq: 0,
		Clock: clock(-1, -1, -1, -1), Target: []memory.Interval{{Lo: 50, Hi: 100}}})
	// And one more of group (1,0) to the right half: if the split aliased
	// the spilled lists, this append would corrupt the left half's list.
	st.Insert(key, Access{Payload: 3, Rank: 1, Class: 0, Seq: 2,
		Clock: clock(-1, -1, -1, -1), Target: []memory.Interval{{Lo: 50, Hi: 100}}})

	q := Query{Rank: 3, Seq: 0, Clock: clock(-1, -1, -1, -1)}
	left := collectQuery(st, key, q, []memory.Interval{{Lo: 0, Hi: 50}}, ModeOverlap, nil)
	if !reflect.DeepEqual(left, []int32{0, 1}) {
		t.Fatalf("left half got %v, want [0 1]", left)
	}
	right := collectQuery(st, key, q, []memory.Interval{{Lo: 50, Hi: 100}}, ModeOverlap, nil)
	if !reflect.DeepEqual(right, []int32{0, 1, 2, 3}) {
		t.Fatalf("right half got %v", right)
	}
}

// usedStore returns a store that has been filled (including the vector
// and the (rank, class) group the caller fills next, with payloads from
// 1000 up), queried and Reset, so a test can check that a reset store
// answers like a fresh one.
func usedStore() *Store {
	st := NewStore()
	key := VectorKey{Win: 1, Target: 0}
	for i := int32(0); i < 6; i++ {
		st.Insert(key, Access{Payload: 1000 + i, Rank: 1 + i%2, Class: i % 3, Seq: int64(3 * i),
			Clock: clock(int64(i), -1, -1), Target: []memory.Interval{{Lo: uint64(4 * i), Hi: uint64(4*i + 12)}}})
	}
	st.Insert(VectorKey{Win: 2, Target: 0}, Access{Payload: 1006, Rank: 1, Seq: 1,
		Clock: clock(-1, -1, -1), Target: []memory.Interval{{Lo: 0, Hi: 64}}})
	collectQuery(st, key, Query{Rank: 0, Seq: 50, Clock: clock(-1, -1, -1)},
		[]memory.Interval{{Lo: 0, Hi: 64}}, ModeOverlap, nil)
	st.Reset()
	return st
}

// concurrentRange against a brute-force reference over random-ish
// monotone clock histories, on a fresh store and on a reset one.
func TestConcurrentRangeMatchesBruteForce(t *testing.T) {
	for _, st := range []*Store{NewStore(), usedStore()} {
		key := VectorKey{Win: 1, Target: 0}
		// Rank 1's history: clocks (knowledge of rank 0) only grow.
		type m struct {
			seq   int64
			knows int64 // clock[0]
		}
		hist := []m{{0, -1}, {2, -1}, {4, 3}, {6, 3}, {8, 7}, {10, 12}}
		for i, h := range hist {
			st.Insert(key, Access{Payload: int32(i), Rank: 1, Class: 0, Seq: h.seq,
				Clock: clock(h.knows, -1), Target: []memory.Interval{{Lo: 0, Hi: 8}}})
		}
		for _, q := range []Query{
			{Rank: 0, Seq: 0, Clock: clock(-1, -1)},
			{Rank: 0, Seq: 5, Clock: clock(-1, 2)},
			{Rank: 0, Seq: 8, Clock: clock(-1, 6)},
			{Rank: 0, Seq: 13, Clock: clock(-1, 10)},
			{Rank: 0, Seq: 4, Clock: clock(-1, 11)},
		} {
			var want []int32
			for i, h := range hist {
				storedBeforeQ := q.Clock[1] >= h.seq
				qBeforeStored := h.knows >= q.Seq
				if !storedBeforeQ && !qBeforeStored {
					want = append(want, int32(i))
				}
			}
			for _, mode := range []Mode{ModeOverlap, ModeAll} {
				got := collectQuery(st, key, q, []memory.Interval{{Lo: 0, Hi: 8}}, mode, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %+v mode %d: got %v want %v", q, mode, got, want)
				}
			}
		}
		if st.Members() != len(hist) || st.Cells(key) != 1 || st.Groups(key) != 1 {
			t.Fatalf("members=%d cells=%d groups=%d, want %d 1 1",
				st.Members(), st.Cells(key), st.Groups(key), len(hist))
		}
		if st.Cells(VectorKey{Win: 2, Target: 0}) != 0 {
			t.Fatal("a vector filled only before Reset kept its cells")
		}
	}
}

// randomAccess is one insert of a randomized store workload.
type randomAccess struct {
	key VectorKey
	acc Access
}

// randomAccesses draws n accesses over two vectors, three origin ranks
// and three classes, with ascending seqs and monotone clocks per rank and
// one- or two-interval footprints, payloads numbered from base.
func randomAccesses(rng *rand.Rand, n int, base int32) []randomAccess {
	const ranks = 4
	seq := make([]int64, ranks)
	clk := make([][]int64, ranks)
	for r := range clk {
		clk[r] = []int64{-1, -1, -1, -1}
	}
	iv := func() memory.Interval {
		lo := uint64(rng.Intn(120))
		return memory.Interval{Lo: lo, Hi: lo + 1 + uint64(rng.Intn(24))}
	}
	out := make([]randomAccess, n)
	for i := range out {
		r := 1 + rng.Intn(ranks-1)
		seq[r] += 1 + int64(rng.Intn(3))
		next := append([]int64(nil), clk[r]...)
		next[rng.Intn(ranks)] += int64(rng.Intn(4))
		clk[r] = next
		fp := []memory.Interval{iv()}
		if rng.Intn(3) == 0 {
			if second := iv(); second.Lo >= fp[0].Hi {
				fp = append(fp, second)
			}
		}
		out[i] = randomAccess{
			key: VectorKey{Win: int32(rng.Intn(2)), Target: 0},
			acc: Access{Payload: base + int32(i), Rank: int32(r), Class: int32(rng.Intn(3)),
				Seq: seq[r], Clock: next, Target: fp},
		}
	}
	return out
}

// Filling, resetting and refilling a store must answer every query like
// a fresh store filled the same way, and never emit a member inserted
// before the reset — across several reset cycles with vectors and groups
// that come and go.
func TestResetMatchesFreshStore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reused := NewStore()
	for cycle := 0; cycle < 5; cycle++ {
		stale := int32(100000 * (cycle + 1))
		for _, ra := range randomAccesses(rng, 20+rng.Intn(60), stale) {
			reused.Insert(ra.key, ra.acc)
		}
		collectQuery(reused, VectorKey{Win: 0}, Query{Rank: 0, Seq: 1, Clock: clock(-1, -1, -1, -1)},
			[]memory.Interval{{Lo: 0, Hi: 200}}, ModeOverlap, nil)
		reused.Reset()
		if reused.Members() != 0 {
			t.Fatalf("cycle %d: %d members after Reset", cycle, reused.Members())
		}

		fresh := NewStore()
		for _, ra := range randomAccesses(rng, 10+rng.Intn(80), 0) {
			fresh.Insert(ra.key, ra.acc)
			reused.Insert(ra.key, ra.acc)
		}
		for qi := 0; qi < 200; qi++ {
			key := VectorKey{Win: int32(rng.Intn(3)), Target: 0}
			lo := uint64(rng.Intn(140))
			fp := []memory.Interval{{Lo: lo, Hi: lo + 1 + uint64(rng.Intn(30))}}
			q := Query{Rank: 0, Seq: int64(rng.Intn(60)),
				Clock: clock(-1, int64(rng.Intn(80)-1), int64(rng.Intn(80)-1), int64(rng.Intn(80)-1))}
			modes := map[int32]Mode{}
			for r := int32(1); r < 4; r++ {
				modes[r] = Mode(rng.Intn(3))
			}
			want := collectQuery(fresh, key, q, fp, ModeOverlap, modes)
			got := collectQuery(reused, key, q, fp, ModeOverlap, modes)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d query %d %+v on %v: reset store got %v, fresh store %v",
					cycle, qi, q, fp, got, want)
			}
			for _, p := range got {
				if p >= stale {
					t.Fatalf("cycle %d: member %d inserted before Reset was emitted", cycle, p)
				}
			}
		}
		for _, key := range []VectorKey{{Win: 0}, {Win: 1}} {
			if fresh.Cells(key) != reused.Cells(key) || fresh.Groups(key) != reused.Groups(key) {
				t.Fatalf("cycle %d vector %v: cells/groups %d/%d, fresh store %d/%d", cycle, key,
					reused.Cells(key), reused.Groups(key), fresh.Cells(key), fresh.Groups(key))
			}
		}
		reused.Reset()
	}
}

// Gap-filling and boundary splits keep cells sorted, disjoint, and
// covering exactly the inserted footprints.
func TestCoverInvariants(t *testing.T) {
	st := NewStore()
	key := VectorKey{Win: 1, Target: 0}
	ivs := [][]memory.Interval{
		{{Lo: 40, Hi: 60}},
		{{Lo: 10, Hi: 20}, {Lo: 80, Hi: 90}},
		{{Lo: 0, Hi: 100}},
		{{Lo: 55, Hi: 85}},
		{{Lo: 20, Hi: 40}},
	}
	for i, fp := range ivs {
		st.Insert(key, Access{Payload: int32(i), Rank: int32(i % 3), Class: 0,
			Seq: int64(i), Clock: clock(-1, -1, -1), Target: fp})
	}
	v := st.vector(key)
	// Every entry belongs to exactly one cell's chain, and a cell holds
	// at most one entry per group.
	owner := make([]int, len(v.ents))
	for i := range v.cells {
		c := &v.cells[i]
		if c.lo >= c.hi {
			t.Fatalf("cell %d empty: [%d,%d)", i, c.lo, c.hi)
		}
		if i > 0 && v.cells[i-1].hi > c.lo {
			t.Fatalf("cells %d,%d overlap or unsorted", i-1, i)
		}
		if c.head < 0 {
			t.Fatalf("cell %d has no entries", i)
		}
		groups := map[int32]bool{}
		for e := c.head; e >= 0; e = v.ents[e].next {
			if owner[e] != 0 {
				t.Fatalf("entry %d chained from cells %d and %d", e, owner[e]-1, i)
			}
			owner[e] = i + 1
			if g := v.ents[e].group; groups[g] {
				t.Fatalf("cell %d holds group %d twice", i, g)
			} else {
				groups[g] = true
			}
		}
	}
	// members lists a cell entry's members, inlined or spilled.
	members := func(cg *cellGroup) []int32 {
		if cg.spill < 0 {
			return []int32{cg.solo}
		}
		return v.spills[cg.spill]
	}
	// Every member's footprint is exactly tiled by the cells that hold it.
	for id := int32(0); id < int32(len(ivs)); id++ {
		var covered []memory.Interval
		for i := range v.cells {
			c := &v.cells[i]
			for e := c.head; e >= 0; e = v.ents[e].next {
				for _, m := range members(&v.ents[e]) {
					if m == id {
						covered = append(covered, memory.Interval{Lo: c.lo, Hi: c.hi})
					}
				}
			}
		}
		sort.Slice(covered, func(i, j int) bool { return covered[i].Lo < covered[j].Lo })
		var want uint64
		for _, iv := range ivs[id] {
			want += iv.Hi - iv.Lo
		}
		var got uint64
		for _, iv := range covered {
			got += iv.Hi - iv.Lo
		}
		if got != want {
			t.Fatalf("member %d covered %d bytes, footprint has %d", id, got, want)
		}
		for _, cv := range covered {
			inside := false
			for _, iv := range ivs[id] {
				if cv.Lo >= iv.Lo && cv.Hi <= iv.Hi {
					inside = true
					break
				}
			}
			if !inside {
				t.Fatalf("member %d covered by cell %v outside its footprint %v", id, cv, ivs[id])
			}
		}
	}
	if st.Members() != len(ivs) {
		t.Fatalf("Members=%d", st.Members())
	}
}

// classify must be called at most once per group per query even when the
// group appears in many probed cells.
func TestClassifyOncePerGroup(t *testing.T) {
	st := NewStore()
	key := VectorKey{Win: 1, Target: 0}
	// One group spread over several cells.
	st.Insert(key, Access{Payload: 0, Rank: 1, Class: 0, Seq: 0,
		Clock: clock(-1, -1), Target: []memory.Interval{{Lo: 0, Hi: 30}}})
	st.Insert(key, Access{Payload: 1, Rank: 1, Class: 0, Seq: 1,
		Clock: clock(-1, -1), Target: []memory.Interval{{Lo: 20, Hi: 60}}})
	calls := 0
	st.Query(key, Query{Rank: 0, Seq: 5, Clock: clock(-1, -1)},
		[]memory.Interval{{Lo: 0, Hi: 60}},
		func(rank, class int32) Mode { calls++; return ModeOverlap },
		func(int32) {})
	if calls != 1 {
		t.Fatalf("classify called %d times, want 1", calls)
	}
	// A second query re-classifies (fresh qstamp).
	st.Query(key, Query{Rank: 0, Seq: 6, Clock: clock(-1, -1)},
		[]memory.Interval{{Lo: 0, Hi: 60}},
		func(rank, class int32) Mode { calls++; return ModeOverlap },
		func(int32) {})
	if calls != 2 {
		t.Fatalf("classify called %d times across two queries, want 2", calls)
	}
}

// A reset store refills a region of fresh cells without allocating: the
// cells, their entries, the member arena, the group lists and the group
// map are all kept by Reset. That holds when the refill uses the same
// (window, target) key and when each refill uses a key the store has
// never seen: the new key takes the slot the old one left.
func TestRefillAfterResetAllocatesNothing(t *testing.T) {
	const n = 4096
	order := rand.New(rand.NewSource(1)).Perm(n)
	clk := clock(-1, -1)
	fps := make([][]memory.Interval, n)
	for i, w := range order {
		fps[i] = []memory.Interval{memory.Iv(uint64(8*w), 8)}
	}
	for _, tc := range []struct {
		name string
		next func(VectorKey) VectorKey // the key of the next refill
	}{
		{"same key", func(k VectorKey) VectorKey { return k }},
		{"new key", func(k VectorKey) VectorKey { return VectorKey{Win: k.Win + 1, Target: k.Target} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := VectorKey{Win: 1, Target: 0}
			st := NewStore()
			fill := func() {
				for i, fp := range fps {
					st.Insert(key, Access{Payload: int32(i), Rank: 1, Seq: int64(i), Clock: clk, Target: fp})
				}
			}
			fill()
			if got := st.Cells(key); got != n {
				t.Fatalf("cells=%d, want %d", got, n)
			}
			allocs := testing.AllocsPerRun(3, func() {
				st.Reset()
				key = tc.next(key)
				fill()
			})
			if allocs != 0 {
				t.Fatalf("refilling a reset store allocated %.0f times, want 0", allocs)
			}
			if got := st.Cells(key); got != n {
				t.Fatalf("cells=%d after the refills, want %d", got, n)
			}
		})
	}
}
