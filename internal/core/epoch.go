package core

import (
	"fmt"
	"slices"

	"repro/internal/model"
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
// It returns the epochs, in rank order, and a map from each RMA operation
// to its epoch.
func ExtractEpochs(m *model.Model) ([]*Epoch, map[trace.ID]*Epoch, error) {
	x := epochExtractor{m: m, at: map[int32]int32{}}
	ops := 0
	for _, t := range m.Set.Traces {
		if err := x.extractRank(t); err != nil {
			return nil, nil, err
		}
		ops += len(x.ops)
		x.cutOps()
	}
	opEpoch := make(map[trace.ID]*Epoch, ops)
	for _, e := range x.out {
		for _, id := range e.Ops {
			opEpoch[id] = e
		}
	}
	return x.out, opEpoch, nil
}

// epochExtractor is the state of one ExtractEpochs call. Each rank's
// epochs and their Ops live in two arrays of the exact size: a first pass
// over the rank's events counts the calls that open an epoch and the RMA
// operations. Ops grown by append would allocate several times their final
// size, which shows in a job's allocated bytes when one epoch holds
// thousands of operations.
type epochExtractor struct {
	m      *model.Model
	epochs []Epoch         // the walked rank's epochs, in opening order
	wins   []winEpochs     // its open epochs, one entry per window it touched
	at     map[int32]int32 // window id → its wins index
	ops    []epochOp       // its RMA operations, each with its epoch
	count  []int           // per epochs index: its number of operations
	out    []*Epoch        // every epoch walked, in rank then closing order
}

// epochOp is one RMA operation and the epochs index of its epoch.
type epochOp struct {
	id    trace.ID
	epoch int32
}

// winEpochs holds the epochs index of each epoch one rank has open on one
// window, or -1.
type winEpochs struct {
	fence, pscw, lockAll int32
	// locks holds the open lock epochs, at most one per target rank.
	locks []int32
}

// win returns the walked rank's open epochs on win, valid until the next
// call.
func (x *epochExtractor) win(win int32) *winEpochs {
	i, ok := x.at[win]
	if !ok {
		i = int32(len(x.wins))
		x.at[win] = i
		x.wins = append(x.wins, winEpochs{fence: -1, pscw: -1, lockAll: -1})
	}
	return &x.wins[i]
}

// lock returns the index in w.locks of the lock epoch on target, of either
// mode, or -1.
func (x *epochExtractor) lock(w *winEpochs, target int32) int {
	return slices.IndexFunc(w.locks, func(e int32) bool { return x.epochs[e].Target == target })
}

// begin opens an epoch at seq and returns its epochs index.
func (x *epochExtractor) begin(kind EpochKind, rank, win, target int32, seq int64) int32 {
	x.epochs = append(x.epochs, Epoch{Kind: kind, Rank: rank, Win: win, Target: target, Start: seq})
	return int32(len(x.epochs) - 1)
}

// end closes epoch e at seq.
func (x *epochExtractor) end(e int32, seq int64) {
	x.epochs[e].End = seq
	x.out = append(x.out, &x.epochs[e])
}

// extractRank matches the synchronization calls of one rank's trace. It
// reads only the model registries and the rank's own events.
func (x *epochExtractor) extractRank(t *trace.Trace) error {
	rank := t.Rank
	opens, ops := 0, 0
	for i := range t.Events {
		switch k := t.Events[i].Kind; {
		case k == trace.KindWinFence, k == trace.KindWinLock, k == trace.KindWinStart, k == trace.KindWinLockAll:
			opens++
		case k.IsRMAComm():
			ops++
		}
	}
	// out points into epochs, so it must not grow past the count.
	x.epochs = make([]Epoch, 0, opens)
	x.ops = slices.Grow(x.ops[:0], ops)
	x.wins = x.wins[:0]
	clear(x.at)
	for i := range t.Events {
		ev := &t.Events[i]
		seq := int64(i)
		switch ev.Kind {
		case trace.KindWinFence:
			w := x.win(ev.Win)
			if w.fence >= 0 {
				x.end(w.fence, seq)
			}
			w.fence = x.begin(EpochFence, rank, ev.Win, -1, seq)
		case trace.KindWinLock:
			tw, err := x.m.TargetWorld(ev)
			if err != nil {
				return err
			}
			kind := EpochLockShared
			if ev.Lock == trace.LockExclusive {
				kind = EpochLockExclusive
			}
			w := x.win(ev.Win)
			if x.lock(w, tw) >= 0 {
				return fmt.Errorf("core: rank %d double-locks win %d target %d at %s",
					rank, ev.Win, tw, ev.Loc())
			}
			w.locks = append(w.locks, x.begin(kind, rank, ev.Win, tw, seq))
		case trace.KindWinUnlock:
			tw, err := x.m.TargetWorld(ev)
			if err != nil {
				return err
			}
			w := x.win(ev.Win)
			l := x.lock(w, tw)
			if l < 0 {
				return fmt.Errorf("core: rank %d unlocks win %d target %d without lock at %s",
					rank, ev.Win, tw, ev.Loc())
			}
			x.end(w.locks[l], seq)
			w.locks = slices.Delete(w.locks, l, l+1)
		case trace.KindWinStart:
			w := x.win(ev.Win)
			if w.pscw >= 0 {
				return fmt.Errorf("core: rank %d nested Win_start on win %d at %s",
					rank, ev.Win, ev.Loc())
			}
			w.pscw = x.begin(EpochPSCW, rank, ev.Win, -1, seq)
		case trace.KindWinComplete:
			w := x.win(ev.Win)
			if w.pscw < 0 {
				return fmt.Errorf("core: rank %d Win_complete without Win_start at %s",
					rank, ev.Loc())
			}
			x.end(w.pscw, seq)
			w.pscw = -1
		case trace.KindWinLockAll:
			w := x.win(ev.Win)
			if w.lockAll >= 0 {
				return fmt.Errorf("core: rank %d nested Win_lock_all on win %d at %s",
					rank, ev.Win, ev.Loc())
			}
			w.lockAll = x.begin(EpochLockAll, rank, ev.Win, -1, seq)
		case trace.KindWinUnlockAll:
			w := x.win(ev.Win)
			if w.lockAll < 0 {
				return fmt.Errorf("core: rank %d Win_unlock_all without Win_lock_all at %s",
					rank, ev.Loc())
			}
			x.end(w.lockAll, seq)
			w.lockAll = -1
		case trace.KindPut, trace.KindGet, trace.KindAccumulate,
			trace.KindGetAccumulate, trace.KindFetchOp, trace.KindCompareSwap:
			tw, err := x.m.TargetWorld(ev)
			if err != nil {
				return err
			}
			// An operation joins the lock epoch on its target, else the
			// window's lock_all, access (start) or fence epoch, in that
			// order of precedence.
			w := x.win(ev.Win)
			var e int32
			switch l := x.lock(w, tw); {
			case l >= 0:
				e = w.locks[l]
			case w.lockAll >= 0:
				e = w.lockAll
			case w.pscw >= 0:
				e = w.pscw
			case w.fence >= 0:
				e = w.fence
			default:
				return fmt.Errorf("core: rank %d issues %s outside any epoch at %s",
					rank, ev.Kind, ev.Loc())
			}
			x.ops = append(x.ops, epochOp{id: ev.ID(), epoch: e})
		}
	}
	// Close epochs truncated by the end of the trace, in the order they
	// opened: two of them can report violations under one dedup key, and
	// the first checked supplies the reported instance. Those still open
	// have End 0, since an epoch closed at seq s opened before s.
	for e := range x.epochs {
		if x.epochs[e].End == 0 {
			x.end(int32(e), int64(len(t.Events)))
		}
	}
	return nil
}

// cutOps gives the walked rank's epochs their Ops, cut from one array in
// program order.
func (x *epochExtractor) cutOps() {
	x.count = append(x.count[:0], make([]int, len(x.epochs))...)
	for _, op := range x.ops {
		x.count[op.epoch]++
	}
	ops := make([]trace.ID, len(x.ops))
	for i, c := range x.count {
		if c > 0 {
			x.epochs[i].Ops, ops = ops[:0:c], ops[c:]
		}
	}
	for _, op := range x.ops {
		e := &x.epochs[op.epoch]
		e.Ops = append(e.Ops, op.id)
	}
}
