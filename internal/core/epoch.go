package core

import (
	"fmt"
	"strconv"

	"repro/internal/model"
	"repro/internal/obs/tracing"
	"repro/internal/par"
	"repro/internal/trace"
)

// EpochKind classifies the synchronization mode that opened an epoch.
type EpochKind uint8

const (
	EpochFence EpochKind = iota
	EpochLockShared
	EpochLockExclusive
	EpochPSCW
	EpochLockAll // MPI-3 Win_lock_all..Win_unlock_all (shared to all ranks)
)

func (k EpochKind) String() string {
	switch k {
	case EpochFence:
		return "fence"
	case EpochLockShared:
		return "lock(shared)"
	case EpochLockExclusive:
		return "lock(exclusive)"
	case EpochLockAll:
		return "lock_all"
	default:
		return "start/complete"
	}
}

// Epoch is one access epoch at one rank on one window: a program execution
// region delimited by RMA synchronization operations (paper §II-A).
// Nonblocking one-sided operations issued within it are unordered with each
// other and with the local accesses that follow them until End.
type Epoch struct {
	Kind   EpochKind
	Rank   int32
	Win    int32
	Target int32 // world rank locked (lock epochs only); -1 otherwise
	Start  int64 // seq of the opening sync event
	End    int64 // seq of the closing sync event (len(trace) if truncated)
	// Ops lists the RMA operations issued in the epoch, in ascending seq
	// order (program order at Rank).
	Ops []trace.ID
}

func (e *Epoch) String() string {
	return fmt.Sprintf("rank %d win %d %s epoch [%d,%d] with %d ops",
		e.Rank, e.Win, e.Kind, e.Start, e.End, len(e.Ops))
}

// ExtractEpochs walks every rank's trace and groups RMA operations into
// epochs by matching the synchronization calls (paper §III-C: "MC-Checker
// first scans all the vertices belonging to a process and identifies all
// the epochs within the process by matching the synchronization calls").
// It returns the epochs and a map from each RMA operation to its epoch.
func ExtractEpochs(m *model.Model) ([]*Epoch, map[trace.ID]*Epoch, error) {
	return ExtractEpochsWorkers(m, 1)
}

// ExtractEpochsWorkers is ExtractEpochs with the per-rank scans fanned
// out over a worker pool. Epoch matching never crosses ranks, so each
// rank's epochs and op→epoch assignments are computed independently and
// concatenated in rank order — the exact sequence the serial walk
// produces, keeping every downstream consumer byte-identical.
func ExtractEpochsWorkers(m *model.Model, workers int) ([]*Epoch, map[trace.ID]*Epoch, error) {
	return ExtractEpochsWorkersTraced(m, workers, nil)
}

// ExtractEpochsWorkersTraced is ExtractEpochsWorkers with each rank's
// sync-matching scan recorded as a span on tr (track "epochs"). tr may
// be nil.
func ExtractEpochsWorkersTraced(m *model.Model, workers int, tr *tracing.Recorder) ([]*Epoch, map[trace.ID]*Epoch, error) {
	n := len(m.Set.Traces)
	type rankResult struct {
		epochs  []*Epoch
		opEpoch map[trace.ID]*Epoch
	}
	per := make([]rankResult, n)
	scope := func(r int) string { return fmt.Sprintf("rank %d", r) }
	err := par.RanksTraced(n, workers, tr, "epochs", scope, func(r int, sp *tracing.Span) error {
		epochs, opEpoch, err := extractRankEpochs(m, m.Set.Traces[r])
		per[r] = rankResult{epochs: epochs, opEpoch: opEpoch}
		if sp != nil {
			sp.Annotate("epochs", strconv.Itoa(len(epochs)))
			sp.Annotate("ops", strconv.Itoa(len(opEpoch)))
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	total, totalOps := 0, 0
	for r := range per {
		total += len(per[r].epochs)
		totalOps += len(per[r].opEpoch)
	}
	epochs := make([]*Epoch, 0, total)
	opEpoch := make(map[trace.ID]*Epoch, totalOps)
	for r := range per {
		epochs = append(epochs, per[r].epochs...)
		for id, e := range per[r].opEpoch {
			opEpoch[id] = e
		}
	}
	return epochs, opEpoch, nil
}

// extractRankEpochs matches the synchronization calls of one rank's
// trace. It reads only the (immutable after Build) model registries and
// the rank's own events, so ranks may run concurrently.
func extractRankEpochs(m *model.Model, t *trace.Trace) ([]*Epoch, map[trace.ID]*Epoch, error) {
	rank := t.Rank
	var epochs []*Epoch
	opEpoch := make(map[trace.ID]*Epoch)
	// Per-window open-epoch state for this rank.
	fence := map[int32]*Epoch{}    // win → open fence epoch
	fenceSeen := map[int32]bool{}  // win → at least one fence seen
	locks := map[[2]int32]*Epoch{} // (win, targetWorld) → open lock epoch
	pscw := map[int32]*Epoch{}     // win → open access (start) epoch
	lockAll := map[int32]*Epoch{}  // win → open lock_all epoch

	closeEpoch := func(e *Epoch, end int64) {
		e.End = end
		epochs = append(epochs, e)
	}

	for i := range t.Events {
		ev := &t.Events[i]
		seq := int64(i)
		switch ev.Kind {
		case trace.KindWinFence:
			if open := fence[ev.Win]; open != nil {
				closeEpoch(open, seq)
			}
			fence[ev.Win] = &Epoch{Kind: EpochFence, Rank: rank, Win: ev.Win, Target: -1, Start: seq}
			fenceSeen[ev.Win] = true
		case trace.KindWinLock:
			tw, err := lockTargetWorld(m, ev)
			if err != nil {
				return nil, nil, err
			}
			kind := EpochLockShared
			if ev.Lock == trace.LockExclusive {
				kind = EpochLockExclusive
			}
			key := [2]int32{ev.Win, tw}
			if locks[key] != nil {
				return nil, nil, fmt.Errorf("core: rank %d double-locks win %d target %d at %s",
					rank, ev.Win, tw, ev.Loc())
			}
			locks[key] = &Epoch{Kind: kind, Rank: rank, Win: ev.Win, Target: tw, Start: seq}
		case trace.KindWinUnlock:
			tw, err := lockTargetWorld(m, ev)
			if err != nil {
				return nil, nil, err
			}
			key := [2]int32{ev.Win, tw}
			open := locks[key]
			if open == nil {
				return nil, nil, fmt.Errorf("core: rank %d unlocks win %d target %d without lock at %s",
					rank, ev.Win, tw, ev.Loc())
			}
			closeEpoch(open, seq)
			delete(locks, key)
		case trace.KindWinStart:
			if pscw[ev.Win] != nil {
				return nil, nil, fmt.Errorf("core: rank %d nested Win_start on win %d at %s",
					rank, ev.Win, ev.Loc())
			}
			pscw[ev.Win] = &Epoch{Kind: EpochPSCW, Rank: rank, Win: ev.Win, Target: -1, Start: seq}
		case trace.KindWinComplete:
			open := pscw[ev.Win]
			if open == nil {
				return nil, nil, fmt.Errorf("core: rank %d Win_complete without Win_start at %s",
					rank, ev.Loc())
			}
			closeEpoch(open, seq)
			delete(pscw, ev.Win)
		case trace.KindWinLockAll:
			if lockAll[ev.Win] != nil {
				return nil, nil, fmt.Errorf("core: rank %d nested Win_lock_all on win %d at %s",
					rank, ev.Win, ev.Loc())
			}
			lockAll[ev.Win] = &Epoch{Kind: EpochLockAll, Rank: rank, Win: ev.Win, Target: -1, Start: seq}
		case trace.KindWinUnlockAll:
			open := lockAll[ev.Win]
			if open == nil {
				return nil, nil, fmt.Errorf("core: rank %d Win_unlock_all without Win_lock_all at %s",
					rank, ev.Loc())
			}
			closeEpoch(open, seq)
			delete(lockAll, ev.Win)
		case trace.KindPut, trace.KindGet, trace.KindAccumulate,
			trace.KindGetAccumulate, trace.KindFetchOp, trace.KindCompareSwap:
			tw, err := m.TargetWorld(ev)
			if err != nil {
				return nil, nil, err
			}
			var e *Epoch
			switch {
			case locks[[2]int32{ev.Win, tw}] != nil:
				e = locks[[2]int32{ev.Win, tw}]
			case lockAll[ev.Win] != nil:
				e = lockAll[ev.Win]
			case pscw[ev.Win] != nil:
				e = pscw[ev.Win]
			case fence[ev.Win] != nil:
				e = fence[ev.Win]
			default:
				return nil, nil, fmt.Errorf("core: rank %d issues %s outside any epoch at %s",
					rank, ev.Kind, ev.Loc())
			}
			e.Ops = append(e.Ops, ev.ID())
			opEpoch[ev.ID()] = e
		}
	}

	// Close epochs truncated by the end of the trace.
	end := int64(len(t.Events))
	for _, e := range fence {
		if e != nil {
			closeEpoch(e, end)
		}
	}
	for _, e := range locks {
		closeEpoch(e, end)
	}
	for _, e := range pscw {
		closeEpoch(e, end)
	}
	for _, e := range lockAll {
		closeEpoch(e, end)
	}
	return epochs, opEpoch, nil
}

func lockTargetWorld(m *model.Model, ev *trace.Event) (int32, error) {
	wi, err := m.Win(ev.Win)
	if err != nil {
		return 0, err
	}
	ci, err := m.Comm(wi.Comm)
	if err != nil {
		return 0, err
	}
	return ci.World(ev.Target)
}
