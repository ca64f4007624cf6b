package trace

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

// TestReadDirSalvageConcurrentMatchesSerial pins the salvage refactor's
// contract: decoding rank files on many workers yields byte-identical
// sets and note lists to the serial pass, damage and all.
func TestReadDirSalvageConcurrentMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	writeSalvageCorpus(t, dir, 24)

	serialSet, serialNotes, err := readDirSalvage(dir, 1, obs.Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serialNotes) == 0 {
		t.Fatal("corpus produced no degradation notes; test is vacuous")
	}
	for _, workers := range []int{2, 4, 16} {
		set, notes, err := readDirSalvage(dir, workers, obs.Scope{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(notes, serialNotes) {
			t.Fatalf("workers=%d: notes diverge\nserial: %v\nparallel: %v", workers, serialNotes, notes)
		}
		if set.Ranks() != serialSet.Ranks() {
			t.Fatalf("workers=%d: ranks = %d, want %d", workers, set.Ranks(), serialSet.Ranks())
		}
		for r := range set.Traces {
			if !reflect.DeepEqual(set.Traces[r].Events, serialSet.Traces[r].Events) {
				t.Fatalf("workers=%d: rank %d events diverge", workers, r)
			}
		}
	}
}

// TestReadDirSalvageConcurrentMetrics checks the salvage counters are
// recorded exactly once per accepted file regardless of worker count.
func TestReadDirSalvageConcurrentMetrics(t *testing.T) {
	dir := t.TempDir()
	writeSalvageCorpus(t, dir, 14)
	counts := map[int]int64{}
	for _, workers := range []int{1, 8} {
		reg := obs.NewRegistry()
		if _, _, err := readDirSalvage(dir, workers, obs.Scope{Obs: reg}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		counts[workers] = snap.CounterValue("mcchecker_trace_truncated_streams_total")
	}
	if counts[1] == 0 || counts[1] != counts[8] {
		t.Fatalf("truncated-stream counts diverge across workers: %v", counts)
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
