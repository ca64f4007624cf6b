package tracing

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a clock that advances stepMicros µs per call.
func fixedClock(stepMicros int64) func() time.Time {
	base := time.Unix(1000, 0)
	n := int64(0)
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t := base.Add(time.Duration(n*stepMicros) * time.Microsecond)
		n++
		return t
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	sp := r.Start("track", "lane", "work")
	sp.Annotate("k", "v")
	sp.End()
	r.Instant("track", "lane", "note")
	r.AddSpanAt("track", "lane", "x", 0, 1)
	if r.Len() != 0 {
		t.Fatal("nil recorder recorded something")
	}
	if got := r.Lane("worker 3", "scope"); got != "worker 3" {
		t.Fatalf("nil Lane = %q, want worker", got)
	}
	var sb strings.Builder
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	// The empty export is well-formed JSON but fails validation, which
	// demands at least one event — an empty timeline is always a bug at
	// the call sites that record one.
	if _, err := ValidateChromeTrace([]byte(sb.String())); err == nil {
		t.Fatal("empty export unexpectedly validated")
	}
}

func TestSpanRecordingWallMode(t *testing.T) {
	r := NewWithConfig(Config{Clock: fixedClock(10)})
	sp := r.Start("decode", "worker 0", "rank 0")
	sp.Annotate("events", "24")
	sp.End()
	r.Instant("pipeline", "main", "note", "k", "v")
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	evs := r.snapshot()
	if evs[0].dur <= 0 {
		t.Errorf("span duration = %d, want > 0", evs[0].dur)
	}
	if evs[1].dur >= 0 {
		t.Errorf("instant duration = %d, want < 0", evs[1].dur)
	}
}

func TestDeterministicLaneRouting(t *testing.T) {
	r := NewDeterministic()
	if got := r.Lane("worker 5", "rank 2"); got != "rank 2" {
		t.Fatalf("deterministic Lane = %q, want scope", got)
	}
	w := New()
	if got := w.Lane("worker 5", "rank 2"); got != "worker 5" {
		t.Fatalf("wall Lane = %q, want worker", got)
	}
}

// Two deterministic recordings of the same logical work, performed with
// different goroutine interleavings, must export byte-identically.
func TestDeterministicExportIsScheduleInvariant(t *testing.T) {
	record := func(shuffle bool) string {
		r := NewDeterministic()
		work := []string{"rank 0", "rank 1", "rank 2", "rank 3"}
		var wg sync.WaitGroup
		for i, scope := range work {
			wg.Add(1)
			go func(i int, scope string) {
				defer wg.Done()
				if shuffle {
					time.Sleep(time.Duration(len(work)-i) * time.Millisecond)
				}
				sp := r.Start("decode", r.Lane("worker X", scope), scope)
				sp.Annotate("events", "7")
				sp.End()
			}(i, scope)
		}
		wg.Wait()
		var sb strings.Builder
		if err := r.WriteChromeTrace(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := record(false), record(true)
	if a != b {
		t.Fatalf("deterministic exports differ across schedules:\n%s\n---\n%s", a, b)
	}
}

func TestChromeTraceShape(t *testing.T) {
	r := NewWithConfig(Config{Clock: fixedClock(10)})
	r.Start("decode", "worker 10", "rank 0").End()
	r.Start("decode", "worker 2", "rank 1").End()
	r.Start("pipeline", "main", "model").End()
	r.Instant("pipeline", "main", "salvaging", "error", "boom")

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("invalid export: %v\n%s", err, buf.String())
	}
	if sum.Tracks != 2 || sum.Lanes != 3 || sum.Events != 4 {
		t.Errorf("summary = %+v, want 2 tracks, 3 lanes, 4 events", sum)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// Natural lane ordering: worker 2 before worker 10.
	var laneNames []string
	for _, e := range doc.TraceEvents {
		if e["ph"] == "M" && e["name"] == "thread_name" {
			args := e["args"].(map[string]any)
			laneNames = append(laneNames, args["name"].(string))
		}
	}
	want := []string{"worker 2", "worker 10", "main"}
	if len(laneNames) != len(want) {
		t.Fatalf("lane metadata = %v, want %v", laneNames, want)
	}
	for i := range want {
		if laneNames[i] != want[i] {
			t.Fatalf("lane order = %v, want %v (natural sort)", laneNames, want)
		}
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"traceEvents": "nope"}`,
		`{"traceEvents": [{"ph":"X","name":"x"}]}`, // missing pid/tid/ts
	} {
		if _, err := ValidateChromeTrace([]byte(bad)); err == nil {
			t.Errorf("ValidateChromeTrace(%q) accepted malformed input", bad)
		}
	}
}

func TestAddSpanAtExplicitPlacement(t *testing.T) {
	r := NewDeterministic()
	r.AddSpanAt("violation 1", "rank 0", "epoch open", 0, 1, "side", "sync")
	r.AddSpanAt("violation 1", "rank 1", "conflicting access (2)", 2, 1, "side", "second")
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 2 || sum.Lanes != 2 {
		t.Errorf("summary = %+v, want 2 events in 2 lanes", sum)
	}
}
