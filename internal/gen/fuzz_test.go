package gen

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// FuzzGenerate: any seed must produce a program that validates,
// simulates without deadlock, and whose trace round-trips through codec
// v2 byte-exactly (modulo nil-vs-empty slice canonicalization). A
// pattern byte additionally exercises every injector.
func FuzzGenerate(f *testing.F) {
	f.Add(uint64(0), byte(0))
	f.Add(uint64(1), byte(1))
	f.Add(uint64(12345), byte(255))
	for i, p := range Patterns() {
		f.Add(uint64(i)*77+7, byte(i+1))
		_ = p
	}
	f.Fuzz(func(t *testing.T, seed uint64, patternByte byte) {
		opts := Options{
			Ranks:  2 + int(seed%3),
			Slots:  3 + int(seed>>8%3),
			Phases: 4 + int(seed>>16%4),
		}
		pr := Generate(seed, opts)
		if err := pr.Validate(); err != nil {
			t.Fatalf("generated program invalid: %v\n%s", err, pr)
		}
		if patternByte != 0 {
			cat := Patterns()
			name := cat[(int(patternByte)-1)%len(cat)].Name
			injected, err := Inject(pr, name, seed^0x9e3779b9)
			if err != nil {
				t.Fatalf("inject %s: %v\n%s", name, err, pr)
			}
			if err := injected.Validate(); err != nil {
				t.Fatalf("injected program invalid: %v\n%s", err, injected)
			}
			pr = injected
		}

		sink := trace.NewMemorySink()
		hook := profiler.New(sink, nil)
		// A short timeout turns a deadlock into a run error instead of a
		// hung fuzz worker.
		err := mpi.Run(pr.Ranks, mpi.Options{Hook: hook, Timeout: 30 * time.Second}, pr.Body())
		if err != nil {
			t.Fatalf("simulation failed (deadlock?): %v\n%s", err, pr)
		}

		for r, tr := range sink.Set().Traces {
			buf, err := trace.EncodeTrace(tr)
			if err != nil {
				t.Fatalf("rank %d: encode: %v", r, err)
			}
			got, err := trace.ReadTrace(buf)
			if err != nil {
				t.Fatalf("rank %d: decode: %v", r, err)
			}
			if got.Rank != tr.Rank || len(got.Events) != len(tr.Events) {
				t.Fatalf("rank %d: round trip changed shape: %d/%d events", r, len(got.Events), len(tr.Events))
			}
			for i := range tr.Events {
				if !reflect.DeepEqual(normalizeEvent(tr.Events[i]), normalizeEvent(got.Events[i])) {
					t.Fatalf("rank %d event %d: round trip mismatch:\n got %#v\nwant %#v", r, i, got.Events[i], tr.Events[i])
				}
			}
		}
	})
}

// normalizeEvent maps nil and empty slices, and a Def whose fields are
// all zero, to the canonical form the decoder produces, mirroring the
// codec's own round-trip tests.
func normalizeEvent(ev trace.Event) trace.Event {
	if ev.Def == nil {
		return ev
	}
	def := *ev.Def
	if len(def.TypeMap.Segments) == 0 {
		def.TypeMap.Segments = nil
	}
	if len(def.Members) == 0 {
		def.Members = nil
	}
	ev.Def = &def
	if reflect.DeepEqual(def, trace.Def{}) {
		ev.Def = nil
	}
	return ev
}
