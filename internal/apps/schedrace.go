package apps

import (
	"fmt"

	"repro/internal/mpi"
)

// SchedRace is the planted interleaving-dependent bug for the schedule
// explorer (internal/explore): a memory consistency error that a single
// default-schedule run of MC-Checker cannot see, because the erroneous
// code path is reached only under a minority of legal RMA completion
// orders.
//
// Ranks 0 and 1 race an atomic swap (MPI_Fetch_and_op with MPI_REPLACE)
// into the same word of rank 2's window inside one fence epoch. That is
// legal MPI — same-operation fetching atomics may overlap (paper §II-A,
// extended to MPI-3 in §V) — so the analyzer rightly stays quiet, but the
// word's final value depends on which swap completes last. The
// simulator's baseline applies completions in rank order, so rank 1's
// value (2) always wins a plain run. After the fence, rank 2 inspects
// the word — a mild but common "the race always goes my way in testing"
// assumption — and only when rank 0's value (1) won does it take the
// recovery path: issue a Get probing rank 0's window and, in the buggy
// variant, overwrite the probe buffer before the epoch closes. That is a
// classic conflicting local store on the origin buffer of a pending
// MPI_Get (paper Figure 1), but it manifests only when a schedule flips
// the swap completion order: about half of the seed sweep's reorderings
// do, as does delaying rank 0 in the fence's batch (the static hint), and
// `mcchecker explore` shrinks any such schedule back to a one-clause
// reproducer.
//
// The fixed variant takes the same data-dependent path but touches the
// probe buffer only after the closing fence, so it is clean under every
// legal schedule.
func SchedRace(buggy bool) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		if p.Size() < 3 {
			return fmt.Errorf("schedrace: needs at least 3 ranks")
		}
		sched := p.AllocInt32(1, "sched")
		w := p.WinCreate(sched, 4, p.CommWorld())
		probe := p.AllocInt32(1, "probe")
		src := p.AllocInt32(1, "src")
		fetched := p.AllocInt32(1, "fetched")
		src.SetInt32(0, int32(p.Rank()+1))

		w.Fence(mpi.AssertNone)
		if p.Rank() < 2 {
			// The legal race: both ranks atomically swap their value into
			// rank 2's word in the same epoch. MPI leaves the completion
			// order undefined.
			w.FetchAndOp(src, 0, fetched, 0, 2, 0, mpi.Int32, mpi.OpReplace)
		}
		w.Fence(mpi.AssertNone)

		raceFlipped := false
		if p.Rank() == 2 {
			// Safe read: the previous fence completed both swaps.
			raceFlipped = sched.Int32At(0) == 1
			if raceFlipped {
				// Recovery path, reached only when rank 0's swap completed
				// last: probe rank 0's window state.
				w.Get(probe, 0, 1, mpi.Int32, 0, 0, 1, mpi.Int32)
				if buggy {
					// BUG: reset the probe buffer while the Get is still in
					// flight; the epoch is not closed until the next fence.
					probe.SetInt32(0, -1)
				}
			}
		}
		w.Fence(mpi.AssertNone)
		if p.Rank() == 2 && raceFlipped && !buggy {
			probe.SetInt32(0, -1) // fixed: reset only after the epoch closed
		}
		w.Free()
		return nil
	}
}
