package match

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/trace"
)

// RunNaive is the straightforward matching algorithm the paper describes
// and rejects (§IV-C-2a): "For each synchronization call, one scans
// through all the traces in the corresponding processes and locates its
// matching synchronization calls. This algorithm is time-consuming ...
// especially for large trace files."
//
// For every synchronization event, it scans the peer traces from the
// beginning, skipping entries already consumed by earlier matches, to find
// the partner call. Results are identical to Run's (the progress-counter
// matcher of Algorithm 1); the cost is quadratic in trace length per
// channel instead of linear. It exists as the ablation baseline for the
// matching benchmark.
func RunNaive(m *model.Model) (*Matches, error) {
	set := m.Set
	out := &Matches{}

	// consumed marks events already matched (per event id).
	consumed := map[trace.ID]bool{}

	// Collectives: for each unconsumed collective event, scan every member
	// rank's trace from the beginning for its first unconsumed event of
	// the same scope.
	scopeEq := func(a, b *trace.Event) bool {
		if a.Kind != b.Kind {
			return false
		}
		switch a.Kind {
		case trace.KindWinFence, trace.KindWinCreate, trace.KindWinFree:
			return a.Win == b.Win
		case trace.KindCommCreate:
			return a.Comm == b.Comm
		default:
			return a.Comm == b.Comm
		}
	}

	mt := &matcher{m: m} // reuse scope resolution
	for r := 0; r < set.Ranks(); r++ {
		for i := range set.Traces[r].Events {
			ev := &set.Traces[r].Events[i]
			if !ev.Kind.IsCollective() || consumed[ev.ID()] {
				continue
			}
			_, members, err := mt.scopeOf(ev)
			if err != nil {
				return nil, err
			}
			g := Group{Kind: ev.Kind, Direction: direction(ev.Kind)}
			rootRel := ev.Peer
			for _, member := range members {
				found := false
				for j := range set.Traces[member].Events {
					cand := &set.Traces[member].Events[j]
					if consumed[cand.ID()] || !scopeEq(ev, cand) {
						continue
					}
					if direction(ev.Kind) != DirAll && cand.Peer != rootRel {
						return nil, fmt.Errorf("match: root mismatch in %s: rank %d uses root %d, others %d",
							ev.Kind, member, cand.Peer, rootRel)
					}
					consumed[cand.ID()] = true
					g.Events = append(g.Events, cand.ID())
					found = true
					break
				}
				if !found {
					return nil, fmt.Errorf("match: collective %s at %s matched only %d of %d ranks",
						ev.Kind, ev.Loc(), len(g.Events), len(members))
				}
			}
			if g.Direction != DirAll {
				// Rooted collectives are matched on their communicator.
				ci, err := m.Comm(ev.Comm)
				if err != nil {
					return nil, err
				}
				rootWorld, err := ci.World(rootRel)
				if err != nil {
					return nil, fmt.Errorf("match: %s at %s: %w", ev.Kind, ev.Loc(), err)
				}
				for _, gid := range g.Events {
					if gid.Rank == rootWorld {
						g.Root = gid
						break
					}
				}
			}
			out.Groups = append(out.Groups, g)
		}
	}

	// Point-to-point: for every send(-like) event, scan the destination's
	// trace from the beginning for the first unconsumed matching receive
	// completion.
	reqKind := map[reqID]trace.Kind{}
	for r := 0; r < set.Ranks(); r++ {
		for i := range set.Traces[r].Events {
			ev := &set.Traces[r].Events[i]
			if ev.Kind == trace.KindIsend || ev.Kind == trace.KindIrecv {
				reqKind[reqID{ev.Rank, ev.Req}] = ev.Kind
			}
		}
	}
	isRecvSide := func(ev *trace.Event) bool {
		if ev.Kind == trace.KindRecv {
			return true
		}
		return ev.Kind == trace.KindWaitReq && reqKind[reqID{ev.Rank, ev.Req}] == trace.KindIrecv
	}
	for r := 0; r < set.Ranks(); r++ {
		for i := range set.Traces[r].Events {
			ev := &set.Traces[r].Events[i]
			if ev.Kind != trace.KindSend && ev.Kind != trace.KindIsend {
				continue
			}
			ci, err := m.Comm(ev.Comm)
			if err != nil {
				return nil, err
			}
			dst, err := ci.World(ev.Peer)
			if err != nil {
				return nil, err
			}
			found := false
			for j := range set.Traces[dst].Events {
				cand := &set.Traces[dst].Events[j]
				if consumed[cand.ID()] || !isRecvSide(cand) {
					continue
				}
				if cand.Comm != ev.Comm || cand.Tag != ev.Tag {
					continue
				}
				srcWorld, err := ci.World(cand.Peer)
				if err != nil {
					return nil, err
				}
				if srcWorld != ev.Rank {
					continue
				}
				consumed[cand.ID()] = true
				out.P2P = append(out.P2P, Pair{From: ev.ID(), To: cand.ID()})
				found = true
				break
			}
			if !found {
				return nil, fmt.Errorf("match: unreceived message from rank %d at %s", ev.Rank, ev.Loc())
			}
		}
	}

	if err := naivePSCW(set, out); err != nil {
		return nil, err
	}
	return out, nil
}

// naivePSCW matches PSCW calls the way RunNaive matches the rest, scanning
// the peer's trace from the beginning for every call: each Win_post is
// paired, for every origin it names, with the origin's first Win_start on
// the window that names the post's rank and is not yet paired with that
// rank; each Win_complete is paired, for every target its Win_start
// named, with the target's first Win_wait on the window whose Win_post
// named the complete's rank and that is not yet paired with that rank.
func naivePSCW(set *trace.Set, out *Matches) error {
	type use struct {
		id   trace.ID
		peer int32
	}
	used := map[use]bool{}
	// opening returns the call of kind open that the closing call ev
	// (Win_complete or Win_wait) closes: the k-th closing call on a window
	// at a rank closes the k-th opening call on it there.
	opening := func(ev *trace.Event, open trace.Kind) *trace.Event {
		events := set.Traces[ev.Rank].Events
		k := 0
		for i := int64(0); i < ev.Seq; i++ {
			if events[i].Kind == ev.Kind && events[i].Win == ev.Win {
				k++
			}
		}
		for i := range events {
			if e := &events[i]; e.Kind == open && e.Win == ev.Win {
				if k == 0 {
					return e
				}
				k--
			}
		}
		return nil
	}
	// group returns the ranks a Win_start or Win_wait synchronizes with.
	group := func(ev *trace.Event) []int32 {
		if ev.Kind == trace.KindWinWait {
			if post := opening(ev, trace.KindWinPost); post != nil {
				return post.Members()
			}
			return nil
		}
		return ev.Members()
	}
	// take pairs rank's first unused Win_start or Win_wait (kind) on win
	// whose group names peer with peer.
	take := func(rank int32, kind trace.Kind, win, peer int32) (trace.ID, bool) {
		if rank < 0 || int(rank) >= set.Ranks() {
			return trace.ID{}, false
		}
		for i := range set.Traces[rank].Events {
			cand := &set.Traces[rank].Events[i]
			if cand.Kind != kind || cand.Win != win || used[use{cand.ID(), peer}] ||
				!slices.Contains(group(cand), peer) {
				continue
			}
			used[use{cand.ID(), peer}] = true
			return cand.ID(), true
		}
		return trace.ID{}, false
	}
	for r := range set.Traces {
		for i := range set.Traces[r].Events {
			ev := &set.Traces[r].Events[i]
			switch ev.Kind {
			case trace.KindWinPost:
				for _, origin := range ev.Members() {
					start, ok := take(origin, trace.KindWinStart, ev.Win, ev.Rank)
					if !ok {
						return fmt.Errorf("match: Win_post at %s has no Win_start at rank %d", ev.Loc(), origin)
					}
					out.PostStart = append(out.PostStart, Pair{From: ev.ID(), To: start})
				}
			case trace.KindWinComplete:
				start := opening(ev, trace.KindWinStart)
				if start == nil {
					return fmt.Errorf("match: Win_complete at %s without an open access epoch", ev.Loc())
				}
				for _, target := range start.Members() {
					wait, ok := take(target, trace.KindWinWait, ev.Win, ev.Rank)
					if !ok {
						return fmt.Errorf("match: Win_complete at %s has no Win_wait at rank %d", ev.Loc(), target)
					}
					out.CompleteWait = append(out.CompleteWait, Pair{From: ev.ID(), To: wait})
				}
			}
		}
	}
	// Every Win_start and Win_wait must be paired with each rank of its
	// group.
	for r := range set.Traces {
		for i := range set.Traces[r].Events {
			ev := &set.Traces[r].Events[i]
			if ev.Kind != trace.KindWinStart && ev.Kind != trace.KindWinWait {
				continue
			}
			if ev.Kind == trace.KindWinWait && opening(ev, trace.KindWinPost) == nil {
				return fmt.Errorf("match: Win_wait at %s without an open exposure epoch", ev.Loc())
			}
			for _, peer := range group(ev) {
				if !used[use{ev.ID(), peer}] {
					return fmt.Errorf("match: %s at %s unmatched for rank %d", ev.Kind, ev.Loc(), peer)
				}
			}
		}
	}
	return nil
}
