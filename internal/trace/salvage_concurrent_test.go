package trace

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

// writeSalvageCorpus populates dir with ranks ranks, truncating every
// third file and leaving every seventh out entirely, and returns the rank
// count actually written.
func writeSalvageCorpus(t *testing.T, dir string, ranks int) {
	t.Helper()
	for r := 0; r < ranks; r++ {
		if r%7 == 5 {
			continue // missing rank
		}
		data, _ := buildTrace(t, int32(r), 30+r, int64(r+1))
		if r%3 == 1 {
			data = data[:len(data)*2/3] // truncated rank
		}
		if err := os.WriteFile(filepath.Join(dir, FileName(int32(r))), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadDirSalvageConcurrentMatchesSerial: reads of one damaged
// directory running at once, as daemon jobs do, share the decode-context
// pool; each must still give the set and notes a lone read gives.
func TestReadDirSalvageConcurrentMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	writeSalvageCorpus(t, dir, 24)

	serialSet, serialNotes, err := ReadDirSalvage(dir, obs.Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serialNotes) == 0 {
		t.Fatal("corpus produced no degradation notes; test is vacuous")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			set, notes, err := ReadDirSalvage(dir, obs.Scope{})
			if err != nil {
				t.Errorf("reader %d: %v", g, err)
				return
			}
			if !reflect.DeepEqual(notes, serialNotes) {
				t.Errorf("reader %d: notes diverge\nlone: %v\nconcurrent: %v", g, serialNotes, notes)
			}
			if set.Ranks() != serialSet.Ranks() {
				t.Errorf("reader %d: ranks = %d, want %d", g, set.Ranks(), serialSet.Ranks())
				return
			}
			for r := range set.Traces {
				if !reflect.DeepEqual(set.Traces[r].Events, serialSet.Traces[r].Events) {
					t.Errorf("reader %d: rank %d events diverge", g, r)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReadDirSalvageConcurrentMetrics checks the salvage counters are
// recorded once per lossy read when reads share one registry at once.
func TestReadDirSalvageConcurrentMetrics(t *testing.T) {
	dir := t.TempDir()
	writeSalvageCorpus(t, dir, 14)
	count := func(readers int) int64 {
		reg := obs.NewRegistry()
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := ReadDirSalvage(dir, obs.Scope{Obs: reg}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return reg.Snapshot().CounterValue("mcchecker_trace_truncated_streams_total")
	}
	one, eight := count(1), count(8)
	if one == 0 || eight != 8*one {
		t.Fatalf("truncated-stream counts: one read %d, eight concurrent reads %d", one, eight)
	}
}

func TestReadDirSalvageCanceled(t *testing.T) {
	dir := t.TempDir()
	writeSalvageCorpus(t, dir, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ReadDirSalvage(dir, obs.Scope{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("salvage under canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestReadDirWithCanceled(t *testing.T) {
	dir := t.TempDir()
	for r := int32(0); r < 3; r++ {
		data, _ := buildTrace(t, r, 10, int64(r+1))
		if err := os.WriteFile(filepath.Join(dir, FileName(r)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReadDirWith(dir, obs.Scope{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadDirWith under canceled ctx: err = %v, want context.Canceled", err)
	}
	set, err := ReadDirWith(dir, obs.Scope{Ctx: context.Background()})
	if err != nil {
		t.Fatalf("ReadDirWith with live ctx: %v", err)
	}
	if set.Ranks() != 3 {
		t.Fatalf("ranks = %d, want 3", set.Ranks())
	}
}
