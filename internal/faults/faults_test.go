package faults

import (
	"testing"
)

// roundTripPlans are plans in canonical form: Parse(s).String() == s.
var roundTripPlans = []string{
	"seed=7",
	"seed=7,crash=1@120",
	"seed=7,crash=0@3,crash=1@120,trunc=0.5",
	"seed=2,trunc=0.25@2,reorder,yield=20",
	"seed=1,reorder",
	"seed=5,delay=0@0,delay=2@7",
	"seed=6,reorder,yield=10,delay=1@3",
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range roundTripPlans {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.String(), err)
		}
		if q.String() != p.String() {
			t.Errorf("round trip diverged: %q vs %q", q.String(), p.String())
		}
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("  ")
	if err != nil || p != nil {
		t.Fatalf("Parse(blank) = %v, %v; want nil, nil", p, err)
	}
	if p.Active() {
		t.Error("nil plan must not be active")
	}
}

func TestParseDefaultsSeed(t *testing.T) {
	p, err := Parse("reorder")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 1 {
		t.Errorf("default seed = %d, want 1", p.Seed)
	}
	if !p.Active() || p.HasCrash() {
		t.Errorf("Active=%v HasCrash=%v", p.Active(), p.HasCrash())
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"seed=x", "seed", "crash=1", "crash=@5", "crash=1@0", "crash=-1@5",
		"trunc=2", "trunc=-0.1", "trunc=0.5@x", "trunc=NaN", "trunc=NaN@1",
		"yield=101", "yield=-1", "reorder=1", "bogus=3", "wat",
		"prio=1.0", "chg=0", // unknown: completion order has reorder and delay clauses only
		"delay=1", "delay=@3", "delay=-1@2", "delay=0@-1",
	} {
		if p, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", s, p)
		}
	}
}

func TestCrashAt(t *testing.T) {
	p, _ := Parse("seed=1,crash=1@120,crash=1@40,crash=3@9")
	if call, ok := p.CrashAt(1); !ok || call != 40 {
		t.Errorf("CrashAt(1) = %d, %v; want 40, true (earliest wins)", call, ok)
	}
	if call, ok := p.CrashAt(3); !ok || call != 9 {
		t.Errorf("CrashAt(3) = %d, %v", call, ok)
	}
	if _, ok := p.CrashAt(0); ok {
		t.Error("rank 0 must survive")
	}
	if _, ok := (*Plan)(nil).CrashAt(0); ok {
		t.Error("nil plan must not crash anyone")
	}
}

func TestTruncFor(t *testing.T) {
	p, _ := Parse("seed=1,trunc=0.5,trunc=0.25@2")
	if f, ok := p.TruncFor(0); !ok || f != 0.5 {
		t.Errorf("TruncFor(0) = %g, %v; want 0.5, true", f, ok)
	}
	if f, ok := p.TruncFor(2); !ok || f != 0.25 {
		t.Errorf("TruncFor(2) = %g, %v; want 0.25 (specific overrides)", f, ok)
	}
	if _, ok := (*Plan)(nil).TruncFor(2); ok {
		t.Error("nil plan must not truncate")
	}
}

// Every rank a clause names must exist in the world; an all-rank
// truncation names none.
func TestCheckRanks(t *testing.T) {
	for plan, ok := range map[string]bool{
		"seed=3,crash=1@4,trunc=0.5@1,delay=0@2,reorder": true,
		"trunc=0.5":   true,
		"crash=2@1":   false,
		"trunc=0.5@2": false,
		"delay=2@0":   false,
	} {
		p, err := Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckRanks(2); (err == nil) != ok {
			t.Errorf("CheckRanks(2) of %q = %v", plan, err)
		}
	}
	var none *Plan
	if err := none.CheckRanks(1); err != nil {
		t.Errorf("nil plan: %v", err)
	}
}

func TestTruncateBytes(t *testing.T) {
	data := []byte("0123456789")
	if got := TruncateBytes(data, 0.5); string(got) != "01234" {
		t.Errorf("TruncateBytes(0.5) = %q", got)
	}
	if got := TruncateBytes(data, 1.0); len(got) != 10 {
		t.Errorf("TruncateBytes(1.0) kept %d bytes", len(got))
	}
	if got := TruncateBytes(data, 0); len(got) != 0 {
		t.Errorf("TruncateBytes(0) kept %d bytes", len(got))
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds produced the same first value")
	}
}

func TestDeriveIndependence(t *testing.T) {
	// Derived streams must depend on every key and be order-sensitive.
	a := Derive(7, 1, 2).Uint64()
	if a != Derive(7, 1, 2).Uint64() {
		t.Error("Derive not deterministic")
	}
	for _, other := range []*RNG{Derive(7, 2, 1), Derive(7, 1, 3), Derive(8, 1, 2), Derive(7, 1)} {
		if other.Uint64() == a {
			t.Error("derived streams collide")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 5 {
		t.Errorf("Intn(7) hit only %d distinct values in 200 draws", len(seen))
	}
}

func TestScheduleAtomsRoundTrip(t *testing.T) {
	p, err := Parse("seed=9,crash=1@5,reorder,yield=15,delay=0@1,delay=1@0")
	if err != nil {
		t.Fatal(err)
	}
	atoms := p.ScheduleAtoms()
	want := []string{"reorder", "yield=15", "delay=0@1", "delay=1@0"}
	if len(atoms) != len(want) {
		t.Fatalf("ScheduleAtoms = %v, want %v", atoms, want)
	}
	for i := range want {
		if atoms[i] != want[i] {
			t.Fatalf("ScheduleAtoms = %v, want %v", atoms, want)
		}
	}
	// Rebuilding from all atoms reproduces the schedule; the structural
	// crash and the seed ride along untouched.
	q, err := p.WithScheduleAtoms(atoms)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != p.String() {
		t.Errorf("WithScheduleAtoms(all) = %q, want %q", q.String(), p.String())
	}
	// A subset drops exactly the removed clauses.
	q, err = p.WithScheduleAtoms([]string{"delay=1@0"})
	if err != nil {
		t.Fatal(err)
	}
	if q.Reorder || q.Yield != 0 || len(q.Delays) != 1 {
		t.Errorf("subset rebuild kept extra clauses: %q", q.String())
	}
	if q.Seed != 9 || len(q.Crashes) != 1 {
		t.Errorf("subset rebuild lost seed or structural faults: %q", q.String())
	}
	// Empty subset: structural plan only.
	q, err = p.WithScheduleAtoms(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.String(); got != "seed=9,crash=1@5" {
		t.Errorf("WithScheduleAtoms(nil) = %q", got)
	}
}

func TestScheduleClausesActive(t *testing.T) {
	for _, s := range []string{"yield=5", "delay=0@0"} {
		p, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Active() {
			t.Errorf("Parse(%q).Active() = false, want true", s)
		}
	}
}

func TestWithSeed(t *testing.T) {
	p, _ := Parse("seed=1,crash=1@10,reorder")
	q := p.WithSeed(99)
	if q.Seed != 99 || !q.Reorder || len(q.Crashes) != 1 {
		t.Errorf("WithSeed lost fields: %+v", q)
	}
	if p.Seed != 1 {
		t.Error("WithSeed mutated the receiver")
	}
	if (*Plan)(nil).WithSeed(5) != nil {
		t.Error("nil plan WithSeed must stay nil")
	}
}

// FuzzParsePlan checks what every accepted plan promises its consumers:
// its canonical string parses back to itself, and every truncation
// fraction it yields lies in [0, 1], so TruncateBytes cannot panic.
func FuzzParsePlan(f *testing.F) {
	for _, s := range roundTripPlans {
		f.Add(s)
	}
	f.Add("trunc=NaN")
	data := []byte("0123456789")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil || p == nil { // a blank string is the nil plan
			return
		}
		str := p.String()
		q, err := Parse(str)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", s, str, err)
		}
		if got := q.String(); got != str {
			t.Fatalf("Parse(%q).String() = %q renders %q after a round trip", s, str, got)
		}
		ranks := []int{0}
		for _, tr := range p.Truncs {
			ranks = append(ranks, tr.Rank)
		}
		for _, r := range ranks {
			frac, _ := p.TruncFor(r)
			if !(frac >= 0 && frac <= 1) {
				t.Fatalf("Parse(%q).TruncFor(%d) = %g, outside [0, 1]", s, r, frac)
			}
			TruncateBytes(data, frac)
		}
	})
}
