// Package match implements DN-Analyzer's synchronization matching
// (paper §IV-C-2a, Algorithm 1). It pairs up the synchronization calls
// recorded in the per-rank traces — collectives, blocking send/receive,
// nonblocking send/receive with their waits, and the PSCW one-sided
// synchronization calls — producing the cross-process ordering constraints
// from which the data-access DAG is built.
//
// Faithful to Algorithm 1, matching simulates the progress of the real MPI
// processes: a vector of progress counters (matched entries over total
// entries per rank) drives the scan, always advancing the rank with minimum
// progress. The scan skips the entries that are not synchronization calls
// without visiting them: they change no matching state, and since a rank's
// progress only grows as its cursor moves, the synchronization entries are
// still reached in the order Algorithm 1 reaches them, so the matches and
// their order are the algorithm's. Collectives are matched by per-scope
// sequence number (the k-th collective on a communicator at one rank
// matches the k-th at every other member, since collectives on one
// communicator are totally ordered); point-to-point calls are matched FIFO
// per (source, destination, tag, communicator) channel, which is exact
// under MPI's non-overtaking rule.
package match

import (
	"fmt"
	"math/bits"

	"repro/internal/model"
	"repro/internal/trace"
)

// Direction describes which way a matched collective orders its members.
type Direction uint8

const (
	// DirAll: every member synchronizes with every other (barrier-like).
	DirAll Direction = iota
	// DirFromRoot: the root's event happens-before the others (Bcast, Scatter).
	DirFromRoot
	// DirToRoot: the others' events happen-before the root's (Reduce, Gather).
	DirToRoot
)

func (d Direction) String() string {
	switch d {
	case DirFromRoot:
		return "from-root"
	case DirToRoot:
		return "to-root"
	default:
		return "all"
	}
}

// Group is one matched collective instance.
type Group struct {
	Kind      trace.Kind
	Direction Direction
	Root      trace.ID   // valid when Direction != DirAll
	Events    []trace.ID // one per participating rank
}

// Pair is one matched ordered pair: From happens-before To.
type Pair struct {
	From, To trace.ID
}

// Matches is the full matching result.
type Matches struct {
	Groups []Group
	// P2P pairs: Send/Isend → Recv (or the WaitReq completing an Irecv).
	P2P []Pair
	// PSCW pairs: Win_post → Win_start and Win_complete → Win_wait.
	PostStart    []Pair
	CompleteWait []Pair
}

// direction classifies a collective kind.
func direction(k trace.Kind) Direction {
	switch k {
	case trace.KindBcast, trace.KindScatter:
		return DirFromRoot
	case trace.KindReduce, trace.KindGather:
		return DirToRoot
	default:
		return DirAll
	}
}

// scopeKey names one collective matching scope. Both fields are 32 bits
// wide, so the key hashes as one word.
type scopeKey struct {
	class rune // 'c' comm, 'w' window, 'n' new-comm definition
	id    int32
}

// collScope is the matching state of one collective scope. Each rank's
// k-th collective in the scope belongs to instance k, so a rank joins an
// instance at most once. The instances from base on sit in open by
// instance number; an instance's slot empties when it completes, and the
// empty slots at the front are dropped.
type collScope struct {
	key  scopeKey
	next []int // per world rank: the instance its next collective joins
	base int
	open []pendingColl
	// late holds instances below base, re-opened by a rank outside the
	// instance's communicator; only a malformed trace has one.
	late map[int]*pendingColl
}

// pendingColl is one collective instance; its slot is empty while kind is
// KindInvalid.
type pendingColl struct {
	kind     trace.Kind
	rootRel  int32
	expected int
	events   []trace.ID
}

type chanKey struct {
	comm     int32
	src, dst int32 // world ranks
	tag      int32
}

type pscwKey struct {
	win            int32
	origin, target int32 // world ranks
	seq            int
}

type matcher struct {
	m   *model.Model
	out Matches

	scopes map[scopeKey]*collScope
	ids    []trace.ID // the unused part of the arena Group.Events are cut from
	chunk  int        // size of the arena's last chunk

	sendQ map[chanKey][]trace.ID
	recvQ map[chanKey][]trace.ID

	reqKind map[reqID]trace.Kind // rank+req → Isend/Irecv

	postSeq  map[[3]int32]int // (win, target, origin) → next post instance at target
	startSeq map[[3]int32]int // (win, origin, target) → next start instance at origin
	posts    map[pscwKey]trace.ID
	starts   map[pscwKey]trace.ID

	openStarts map[[2]int32][][]int32 // (rank, win) → queue of open start groups (world ranks)
	compSeq    map[[3]int32]int       // (win, origin, target) → next complete instance
	waitSeq    map[[3]int32]int       // (win, target, origin) → next wait instance
	completes  map[pscwKey]trace.ID
	waits      map[pscwKey][]trace.ID // wait event, by (win, target, origin, seq)

	openPosts map[[2]int32][][]int32 // (rank, win) → queue of posted origin groups
}

type reqID struct {
	rank int32
	req  int32
}

// Run matches all synchronization calls in the model's trace set.
func Run(m *model.Model) (*Matches, error) {
	mt := &matcher{
		m:          m,
		scopes:     map[scopeKey]*collScope{},
		sendQ:      map[chanKey][]trace.ID{},
		recvQ:      map[chanKey][]trace.ID{},
		reqKind:    map[reqID]trace.Kind{},
		postSeq:    map[[3]int32]int{},
		startSeq:   map[[3]int32]int{},
		posts:      map[pscwKey]trace.ID{},
		starts:     map[pscwKey]trace.ID{},
		openStarts: map[[2]int32][][]int32{},
		compSeq:    map[[3]int32]int{},
		waitSeq:    map[[3]int32]int{},
		completes:  map[pscwKey]trace.ID{},
		waits:      map[pscwKey][]trace.ID{},
		openPosts:  map[[2]int32][][]int32{},
	}
	if err := mt.scan(); err != nil {
		return nil, err
	}
	if err := mt.finish(); err != nil {
		return nil, err
	}
	return &mt.out, nil
}

// scan is Algorithm 1's main loop: repeatedly advance the rank with minimum
// progress, processing synchronization entries and skipping the rest.
//
// An entry that is not a synchronization call changes no matcher state,
// so each rank's cursor rests only on synchronization entries, and the
// scan advances the rank whose cursor has the least progress
// cursor/total, ties going to the lowest rank. That is the order in which
// Algorithm 1, stepping over every entry, reaches the synchronization
// entries: each rank's progress grows with its cursor, so its picks merge
// the ranks' entries by (progress, rank).
func (mt *matcher) scan() error {
	traces := mt.m.Set.Traces
	n := len(traces)
	cursor := make([]int, n)
	for q, t := range traces {
		cursor[q] = nextSync(t.Events, 0)
	}
	for {
		r := -1
		for q := 0; q < n; q++ {
			total := len(traces[q].Events)
			if cursor[q] < total && (r < 0 || behind(cursor[q], total, cursor[r], len(traces[r].Events))) {
				r = q
			}
		}
		if r < 0 {
			return nil // all traces fully scanned
		}
		events := traces[r].Events
		ev := &events[cursor[r]]
		cursor[r] = nextSync(events, cursor[r]+1)
		if err := mt.process(ev); err != nil {
			return err
		}
	}
}

// nextSync returns the index of the first synchronization entry of events
// at or after i, or len(events) if there is none.
func nextSync(events []trace.Event, i int) int {
	for i < len(events) && !isSync[events[i].Kind] {
		i++
	}
	return i
}

// isSync is trace.Kind.IsSync as a table, indexed by every value a Kind
// can hold; the scan asks it of every entry.
var isSync = func() (sync [256]bool) {
	for k := range sync {
		sync[k] = trace.Kind(k).IsSync()
	}
	return sync
}()

// behind reports whether progress a/ta is less than progress b/tb,
// compared exactly by cross-multiplication.
func behind(a, ta, b, tb int) bool {
	hi1, lo1 := bits.Mul64(uint64(a), uint64(tb))
	hi2, lo2 := bits.Mul64(uint64(b), uint64(ta))
	return hi1 < hi2 || hi1 == hi2 && lo1 < lo2
}

func (mt *matcher) process(ev *trace.Event) error {
	switch {
	case ev.Kind.IsCollective():
		return mt.processCollective(ev)
	case ev.Kind == trace.KindSend || ev.Kind == trace.KindIsend:
		if ev.Kind == trace.KindIsend {
			mt.reqKind[reqID{ev.Rank, ev.Req}] = trace.KindIsend
		}
		return mt.processSendSide(ev)
	case ev.Kind == trace.KindRecv:
		return mt.processRecvSide(ev)
	case ev.Kind == trace.KindIrecv:
		mt.reqKind[reqID{ev.Rank, ev.Req}] = trace.KindIrecv
		return nil // completion point is the Wait
	case ev.Kind == trace.KindWaitReq:
		if mt.reqKind[reqID{ev.Rank, ev.Req}] == trace.KindIrecv {
			return mt.processRecvSide(ev)
		}
		return nil // Isend wait: local completion only
	case ev.Kind == trace.KindWinPost:
		return mt.processPost(ev)
	case ev.Kind == trace.KindWinStart:
		return mt.processStart(ev)
	case ev.Kind == trace.KindWinComplete:
		return mt.processComplete(ev)
	case ev.Kind == trace.KindWinWait:
		return mt.processWait(ev)
	case ev.Kind == trace.KindWinLock || ev.Kind == trace.KindWinUnlock,
		ev.Kind == trace.KindWinLockAll || ev.Kind == trace.KindWinUnlockAll,
		ev.Kind == trace.KindWinFlush || ev.Kind == trace.KindWinFlushLocal:
		// Passive-target locks and flushes do not synchronize processes by
		// themselves (paper §III-C: passive mode requires other MPI calls
		// such as MPI_Barrier for interprocess synchronization); flush
		// orders operations only within the issuing process.
		return nil
	}
	return nil
}

// scopeOf determines the matching scope and expected membership of a
// collective event.
func (mt *matcher) scopeOf(ev *trace.Event) (scopeKey, []int32, error) {
	switch ev.Kind {
	case trace.KindWinFence:
		wi, err := mt.m.Win(ev.Win)
		if err != nil {
			return scopeKey{}, nil, err
		}
		ci, err := mt.m.Comm(wi.Comm)
		if err != nil {
			return scopeKey{}, nil, err
		}
		return scopeKey{'w', ev.Win}, ci.Members, nil
	case trace.KindWinCreate, trace.KindWinFree:
		ci, err := mt.m.Comm(ev.Comm)
		if err != nil {
			return scopeKey{}, nil, err
		}
		return scopeKey{'w', ev.Win}, ci.Members, nil
	case trace.KindCommCreate:
		// Only the members of the new communicator log this event.
		return scopeKey{'n', ev.Comm}, ev.Members(), nil
	default:
		ci, err := mt.m.Comm(ev.Comm)
		if err != nil {
			return scopeKey{}, nil, err
		}
		return scopeKey{'c', ev.Comm}, ci.Members, nil
	}
}

func (mt *matcher) processCollective(ev *trace.Event) error {
	key, members, err := mt.scopeOf(ev)
	if err != nil {
		return fmt.Errorf("match: %s at %s: %w", ev.Kind, ev.Loc(), err)
	}
	sc := mt.scopes[key]
	if sc == nil {
		sc = &collScope{key: key, next: make([]int, mt.m.Set.Ranks())}
		mt.scopes[key] = sc
	}
	seq := sc.next[ev.Rank]
	sc.next[ev.Rank]++
	pc := sc.slot(seq)
	if pc.kind == trace.KindInvalid {
		*pc = pendingColl{kind: ev.Kind, rootRel: ev.Peer, expected: len(members), events: mt.carve(len(members))}
	}
	if pc.kind != ev.Kind {
		return fmt.Errorf("match: collective mismatch in scope %c%d instance %d: %s at %s vs %s",
			key.class, key.id, seq, ev.Kind, ev.Loc(), pc.kind)
	}
	if direction(ev.Kind) != DirAll && pc.rootRel != ev.Peer {
		return fmt.Errorf("match: root mismatch in %s instance %d: rank %d uses root %d, others %d",
			ev.Kind, seq, ev.Rank, ev.Peer, pc.rootRel)
	}
	pc.events = append(pc.events, ev.ID())
	if len(pc.events) != pc.expected {
		return nil // still open; an instance expecting no ranks never completes
	}
	g := Group{Kind: pc.kind, Direction: direction(pc.kind), Events: pc.events}
	if g.Direction != DirAll {
		// Rooted collectives are matched on their communicator's scope.
		ci, err := mt.m.Comm(ev.Comm)
		if err != nil {
			return err
		}
		rootWorld, err := ci.World(pc.rootRel)
		if err != nil {
			return fmt.Errorf("match: %s at %s: %w", ev.Kind, ev.Loc(), err)
		}
		for _, id := range pc.events {
			if id.Rank == rootWorld {
				g.Root = id
				break
			}
		}
	}
	mt.out.Groups = append(mt.out.Groups, g)
	*pc = pendingColl{}
	sc.trim()
	return nil
}

// slot returns the slot of instance seq, opening the window up to it.
func (sc *collScope) slot(seq int) *pendingColl {
	if seq < sc.base {
		if sc.late == nil {
			sc.late = map[int]*pendingColl{}
		}
		pc := sc.late[seq]
		if pc == nil {
			pc = &pendingColl{}
			sc.late[seq] = pc
		}
		return pc
	}
	for seq-sc.base >= len(sc.open) {
		sc.open = append(sc.open, pendingColl{})
	}
	return &sc.open[seq-sc.base]
}

// trim drops the empty slots at the front of the window: every rank that
// reached one of them has moved past it, so only a rank outside the
// communicator can come back to it, through late.
func (sc *collScope) trim() {
	k := 0
	for k < len(sc.open) && sc.open[k].kind == trace.KindInvalid {
		k++
	}
	sc.base += k
	sc.open = sc.open[:copy(sc.open, sc.open[k:])]
}

// carve returns an empty slice with room for n event ids, cut from the
// matcher's arena so that groups do not allocate one by one; each chunk
// of the arena is twice the size of the last.
func (mt *matcher) carve(n int) []trace.ID {
	if n > len(mt.ids) {
		mt.chunk = max(2*mt.chunk, 64, n)
		mt.ids = make([]trace.ID, mt.chunk)
	}
	s := mt.ids[:0:n]
	mt.ids = mt.ids[n:]
	return s
}

func (mt *matcher) chanKeyOf(ev *trace.Event, sendSide bool) (chanKey, error) {
	ci, err := mt.m.Comm(ev.Comm)
	if err != nil {
		return chanKey{}, err
	}
	peer, err := ci.World(ev.Peer)
	if err != nil {
		return chanKey{}, fmt.Errorf("match: %s at %s: %w", ev.Kind, ev.Loc(), err)
	}
	if sendSide {
		return chanKey{comm: ev.Comm, src: ev.Rank, dst: peer, tag: ev.Tag}, nil
	}
	return chanKey{comm: ev.Comm, src: peer, dst: ev.Rank, tag: ev.Tag}, nil
}

func (mt *matcher) processSendSide(ev *trace.Event) error {
	key, err := mt.chanKeyOf(ev, true)
	if err != nil {
		return err
	}
	if rq := mt.recvQ[key]; len(rq) > 0 {
		mt.out.P2P = append(mt.out.P2P, Pair{From: ev.ID(), To: rq[0]})
		mt.recvQ[key] = rq[1:]
		return nil
	}
	mt.sendQ[key] = append(mt.sendQ[key], ev.ID())
	return nil
}

func (mt *matcher) processRecvSide(ev *trace.Event) error {
	key, err := mt.chanKeyOf(ev, false)
	if err != nil {
		return err
	}
	if sq := mt.sendQ[key]; len(sq) > 0 {
		mt.out.P2P = append(mt.out.P2P, Pair{From: sq[0], To: ev.ID()})
		mt.sendQ[key] = sq[1:]
		return nil
	}
	mt.recvQ[key] = append(mt.recvQ[key], ev.ID())
	return nil
}

func (mt *matcher) processPost(ev *trace.Event) error {
	rk := [2]int32{ev.Rank, ev.Win}
	mt.openPosts[rk] = append(mt.openPosts[rk], ev.Members())
	for _, origin := range ev.Members() {
		k := [3]int32{ev.Win, ev.Rank, origin}
		seq := mt.postSeq[k]
		mt.postSeq[k]++
		pk := pscwKey{win: ev.Win, origin: origin, target: ev.Rank, seq: seq}
		if start, ok := mt.starts[pk]; ok {
			mt.out.PostStart = append(mt.out.PostStart, Pair{From: ev.ID(), To: start})
			delete(mt.starts, pk)
		} else {
			mt.posts[pk] = ev.ID()
		}
	}
	return nil
}

func (mt *matcher) processStart(ev *trace.Event) error {
	rk := [2]int32{ev.Rank, ev.Win}
	mt.openStarts[rk] = append(mt.openStarts[rk], ev.Members())
	for _, target := range ev.Members() {
		k := [3]int32{ev.Win, ev.Rank, target}
		seq := mt.startSeq[k]
		mt.startSeq[k]++
		pk := pscwKey{win: ev.Win, origin: ev.Rank, target: target, seq: seq}
		if post, ok := mt.posts[pk]; ok {
			mt.out.PostStart = append(mt.out.PostStart, Pair{From: post, To: ev.ID()})
			delete(mt.posts, pk)
		} else {
			mt.starts[pk] = ev.ID()
		}
	}
	return nil
}

func (mt *matcher) processComplete(ev *trace.Event) error {
	rk := [2]int32{ev.Rank, ev.Win}
	q := mt.openStarts[rk]
	if len(q) == 0 {
		return fmt.Errorf("match: %s at %s without an open access epoch", ev.Kind, ev.Loc())
	}
	targets := q[0]
	mt.openStarts[rk] = q[1:]
	for _, target := range targets {
		k := [3]int32{ev.Win, ev.Rank, target}
		seq := mt.compSeq[k]
		mt.compSeq[k]++
		pk := pscwKey{win: ev.Win, origin: ev.Rank, target: target, seq: seq}
		if wq, ok := mt.waits[pk]; ok && len(wq) > 0 {
			mt.out.CompleteWait = append(mt.out.CompleteWait, Pair{From: ev.ID(), To: wq[0]})
			mt.waits[pk] = wq[1:]
		} else {
			mt.completes[pk] = ev.ID()
		}
	}
	return nil
}

func (mt *matcher) processWait(ev *trace.Event) error {
	rk := [2]int32{ev.Rank, ev.Win}
	q := mt.openPosts[rk]
	if len(q) == 0 {
		return fmt.Errorf("match: %s at %s without an open exposure epoch", ev.Kind, ev.Loc())
	}
	origins := q[0]
	mt.openPosts[rk] = q[1:]
	for _, origin := range origins {
		k := [3]int32{ev.Win, ev.Rank, origin}
		seq := mt.waitSeq[k]
		mt.waitSeq[k]++
		pk := pscwKey{win: ev.Win, origin: origin, target: ev.Rank, seq: seq}
		if comp, ok := mt.completes[pk]; ok {
			mt.out.CompleteWait = append(mt.out.CompleteWait, Pair{From: comp, To: ev.ID()})
			delete(mt.completes, pk)
		} else {
			mt.waits[pk] = append(mt.waits[pk], ev.ID())
		}
	}
	return nil
}

// finish validates that nothing is left unmatched; a correct trace of a
// completed run matches everything. Where several collectives or
// channels are left over, it names the one whose first event has the
// smallest (rank, seq), so the error does not depend on map order.
func (mt *matcher) finish() error {
	var (
		psc  *collScope
		pseq int
		pc   *pendingColl
	)
	consider := func(sc *collScope, seq int, p *pendingColl) {
		if p.kind != trace.KindInvalid && (pc == nil || idLess(p.events[0], pc.events[0])) {
			psc, pseq, pc = sc, seq, p
		}
	}
	for _, sc := range mt.scopes {
		for i := range sc.open {
			consider(sc, sc.base+i, &sc.open[i])
		}
		for seq, p := range sc.late {
			consider(sc, seq, p)
		}
	}
	if pc != nil {
		return fmt.Errorf("match: collective %s on scope %c%d instance %d matched only %d of %d ranks",
			pc.kind, psc.key.class, psc.key.id, pseq, len(pc.events), pc.expected)
	}
	if key, q := firstQueued(mt.sendQ); q != nil {
		ev := mt.m.Set.Get(q[0])
		return fmt.Errorf("match: %d unreceived message(s) from rank %d to rank %d tag %d (first sent at %s)",
			len(q), key.src, key.dst, key.tag, ev.Loc())
	}
	if key, q := firstQueued(mt.recvQ); q != nil {
		ev := mt.m.Set.Get(q[0])
		return fmt.Errorf("match: %d receive(s) at rank %d from rank %d tag %d never matched (first at %s)",
			len(q), key.dst, key.src, key.tag, ev.Loc())
	}
	if len(mt.posts) > 0 || len(mt.starts) > 0 {
		return fmt.Errorf("match: %d post(s) and %d start(s) unmatched", len(mt.posts), len(mt.starts))
	}
	for _, q := range mt.waits {
		if len(q) > 0 {
			return fmt.Errorf("match: unmatched Win_wait")
		}
	}
	if len(mt.completes) > 0 {
		return fmt.Errorf("match: %d Win_complete(s) unmatched", len(mt.completes))
	}
	return nil
}

// firstQueued returns the channel of queues whose non-empty queue starts
// with the smallest (rank, seq), or a nil queue if every queue is empty.
func firstQueued(queues map[chanKey][]trace.ID) (chanKey, []trace.ID) {
	var (
		first chanKey
		fq    []trace.ID
	)
	for key, q := range queues {
		if len(q) > 0 && (fq == nil || idLess(q[0], fq[0])) {
			first, fq = key, q
		}
	}
	return first, fq
}

// idLess orders event IDs by rank, then seq.
func idLess(a, b trace.ID) bool {
	return a.Rank < b.Rank || a.Rank == b.Rank && a.Seq < b.Seq
}
