package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// goldenTrace is a fixed trace that sets every field the encoder writes,
// function names and negative lines included.
func goldenTrace() *Trace {
	evs := sampleEvents(3, 300, rand.New(rand.NewSource(16)))
	funcs := []string{"main.main", "", "repro/internal/apps.LU.func1"}
	for i := range evs {
		evs[i].Func = funcs[i%len(funcs)]
		if i%7 == 0 {
			evs[i].Line = -evs[i].Line
		}
		if i%5 == 0 {
			evs[i].ResultAddr, evs[i].ResultType, evs[i].ResultCount = uint64(i)<<12, TypeInt32, int32(i%9)
		}
	}
	return &Trace{Rank: 3, Events: evs}
}

// TestEncodeTraceGolden pins the codec v2 bytes: an encoder change that
// alters a single byte of the stream fails here.
func TestEncodeTraceGolden(t *testing.T) {
	const want = "d45fa0c623cb86db6f80b9136f0dce4fc4b3d95d3e7fb02212ad800ff2fd46a0"
	data, err := EncodeTrace(goldenTrace())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("EncodeTrace of the golden trace: %d bytes, sha256 %s, want %s", len(data), got, want)
	}
}

// TestEncodeEventDoesNotAllocate: once an event's file and function names
// are interned, the encoder appends its record to the reused buffer
// without allocating.
func TestEncodeEventDoesNotAllocate(t *testing.T) {
	tr := goldenTrace()
	e := encoder{strs: map[string]uint64{"": 0}}
	for i := range tr.Events {
		e.event(&tr.Events[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		e.buf = e.buf[:0]
		e.event(&tr.Events[i%len(tr.Events)])
		i++
	})
	if allocs != 0 {
		t.Errorf("encoding an event allocates %.2f times, want 0", allocs)
	}
}
