package mpi

import (
	"sort"
	"sync"

	"repro/internal/trace"
)

// Comm is a communicator: a process group with an isolated communication
// context. Comm values are shared, immutable descriptors; per-rank state
// (pending messages) lives in the ranks' mailboxes, keyed by communicator
// id.
type Comm struct {
	world *World
	id    int32
	group *Group
	coll  *collState
}

func newComm(w *World, id int32, g *Group) *Comm {
	return &Comm{world: w, id: id, group: g, coll: newCollState(w, g)}
}

// ID returns the communicator id (0 is MPI_COMM_WORLD).
func (c *Comm) ID() int32 { return c.id }

// Size returns the number of member processes.
func (c *Comm) Size() int { return c.group.Size() }

// Group returns the communicator's process group.
func (c *Comm) Group() *Group { return c.group }

// RankOf returns the communicator-relative rank of p, or -1 if p is not a
// member.
func (c *Comm) RankOf(p *Proc) int { return c.group.Rank(p.rank) }

// WorldRank translates a communicator-relative rank to a world rank.
func (c *Comm) WorldRank(rel int) int { return c.group.WorldRank(rel) }

// mustMember returns p's relative rank, panicking with a usage error if p
// is not in the communicator.
func (c *Comm) mustMember(p *Proc, call string) int {
	rel := c.RankOf(p)
	if rel < 0 {
		p.errorf(call, "rank %d is not a member of communicator %d", p.rank, c.id)
	}
	return rel
}

// collState is the rendezvous shared by all collective operations on one
// communicator (or one window, for fences). Collectives on a communicator
// are totally ordered, per the MPI requirement that all members invoke them
// in the same order.
type collState struct {
	world   *World
	group   *Group // member world ranks, for failure-dependency checks
	mu      sync.Mutex
	cond    *sync.Cond
	gen     uint64
	arrived int
	op      string
	slots   map[int]any
	result  any
}

func newCollState(w *World, g *Group) *collState {
	cs := &collState{world: w, group: g, slots: make(map[int]any)}
	cs.cond = sync.NewCond(&cs.mu)
	w.addCond(cs.cond)
	return cs
}

// rendezvous blocks until all size participants have deposited, then
// returns compute's result (evaluated once, by the last arriver) to every
// participant. op names the collective for mismatch detection.
func (cs *collState) rendezvous(p *Proc, size, rel int, op string, deposit any, compute func(slots map[int]any) any) any {
	defer p.enterBlocked(op)()
	cs.mu.Lock()
	if cs.arrived == 0 {
		cs.op = op
		// Fresh map every round: compute may return the slots map itself
		// as the collective's result, which waiters read after the next
		// round has already begun.
		cs.slots = make(map[int]any, size)
	} else if cs.op != op {
		mismatch := cs.op
		cs.mu.Unlock()
		p.errorf(op, "collective mismatch: other ranks are in %s", mismatch)
	}
	cs.slots[rel] = deposit
	cs.arrived++
	if cs.arrived == size {
		cs.result = compute(cs.slots)
		cs.arrived = 0
		cs.gen++
		cs.cond.Broadcast()
		r := cs.result
		cs.mu.Unlock()
		return r
	}
	myGen := cs.gen
	for cs.gen == myGen {
		if cs.world.abortedNow() {
			cs.mu.Unlock()
			panic(abortPanic{})
		}
		// After an injected crash: a collective over a dead member can never
		// complete — deliver the failure instead of blocking forever.
		if cs.world.anyFailed() {
			if fr := cs.world.failedOf(cs.group.Ranks()); fr >= 0 {
				cs.mu.Unlock()
				p.failPeer(op, fr)
			}
		}
		cs.cond.Wait()
	}
	r := cs.result
	cs.mu.Unlock()
	return r
}

// CommCreate creates a communicator from a subgroup of parent
// (MPI_Comm_create). It is collective over parent; members of g receive
// the new communicator and non-members receive nil.
func (p *Proc) CommCreate(parent *Comm, g *Group) *Comm {
	rel := parent.mustMember(p, "Comm_create")
	result := parent.coll.rendezvous(p, parent.Size(), rel, "Comm_create", nil,
		func(map[int]any) any {
			return newComm(p.world, p.world.allocCommID(), g)
		})
	nc := result.(*Comm)
	if !g.Contains(p.rank) {
		return nil
	}
	p.emit(trace.Event{
		Kind: trace.KindCommCreate,
		Comm: nc.id,
		Def:  &trace.Def{Members: toInt32s(g.Ranks())},
	}, 1)
	return nc
}

// CommDup duplicates a communicator with a fresh context (MPI_Comm_dup).
func (p *Proc) CommDup(c *Comm) *Comm {
	rel := c.mustMember(p, "Comm_dup")
	result := c.coll.rendezvous(p, c.Size(), rel, "Comm_dup", nil,
		func(map[int]any) any {
			return newComm(p.world, p.world.allocCommID(), c.group)
		})
	nc := result.(*Comm)
	p.emit(trace.Event{
		Kind: trace.KindCommCreate,
		Comm: nc.id,
		Def:  &trace.Def{Members: toInt32s(c.group.Ranks())},
	}, 1)
	return nc
}

// CommSplit partitions a communicator by color; within a color, new ranks
// are ordered by (key, old rank) (MPI_Comm_split). A negative color
// (MPI_UNDEFINED) yields nil.
func (p *Proc) CommSplit(c *Comm, color, key int) *Comm {
	rel := c.mustMember(p, "Comm_split")
	type ck struct{ color, key int }
	result := c.coll.rendezvous(p, c.Size(), rel, "Comm_split", ck{color, key},
		func(slots map[int]any) any {
			byColor := map[int][]struct{ key, rel int }{}
			for r, v := range slots {
				d := v.(ck)
				if d.color < 0 {
					continue
				}
				byColor[d.color] = append(byColor[d.color], struct{ key, rel int }{d.key, r})
			}
			comms := map[int]*Comm{}
			colors := make([]int, 0, len(byColor))
			for col := range byColor {
				colors = append(colors, col)
			}
			sort.Ints(colors)
			for _, col := range colors {
				members := byColor[col]
				sort.Slice(members, func(i, j int) bool {
					if members[i].key != members[j].key {
						return members[i].key < members[j].key
					}
					return members[i].rel < members[j].rel
				})
				world := make([]int, len(members))
				for i, m := range members {
					world[i] = c.WorldRank(m.rel)
				}
				comms[col] = newComm(p.world, p.world.allocCommID(), NewGroup(world))
			}
			return comms
		})
	if color < 0 {
		return nil
	}
	nc := result.(map[int]*Comm)[color]
	p.emit(trace.Event{
		Kind: trace.KindCommCreate,
		Comm: nc.id,
		Def:  &trace.Def{Members: toInt32s(nc.group.Ranks())},
	}, 1)
	return nc
}

func toInt32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}
