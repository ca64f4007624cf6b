package mpi

import (
	"sync"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Wildcards for Recv/Irecv source and tag.
const (
	AnySource = -1
	AnyTag    = -1
)

// Status describes a completed receive.
type Status struct {
	Source int // communicator-relative source rank
	Tag    int
	Bytes  int
}

// message is one in-flight point-to-point message.
type message struct {
	commID int32
	src    int32 // communicator-relative source rank
	tag    int32
	data   []byte
}

// mailbox holds messages delivered to a rank but not yet received.
// Matching is FIFO per (comm, source, tag): MPI's non-overtaking rule.
type mailbox struct {
	world *World
	mu    sync.Mutex
	cond  *sync.Cond
	msgs  []*message
}

func newMailbox(w *World) *mailbox {
	mb := &mailbox{world: w}
	mb.cond = sync.NewCond(&mb.mu)
	w.addCond(mb.cond)
	return mb
}

func (mb *mailbox) deliver(m *message) {
	mb.mu.Lock()
	mb.msgs = append(mb.msgs, m)
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// receive blocks until a message matching (c, src, tag) arrives and
// removes it. src/tag may be wildcards. Deliverable messages are always
// scanned before the failure check: everything a rank sent before dying
// was delivered eagerly before its failure flag was published, so a
// receive of an already-sent message completes normally even when the
// sender later crashed.
func (mb *mailbox) receive(p *Proc, c *Comm, src, tag int, call string) *message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.msgs {
			if m.commID != c.id {
				continue
			}
			if src != AnySource && m.src != int32(src) {
				continue
			}
			if tag != AnyTag && m.tag != int32(tag) {
				continue
			}
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			return m
		}
		if mb.world.abortedNow() {
			panic(abortPanic{}) // deferred unlock releases the mutex
		}
		// After an injected crash: a receive from a dead rank can never match.
		// A wildcard receive fails as soon as any communicator member has
		// died (ULFM's MPI_ERR_PROC_FAILED_PENDING) — the failed source
		// might have been the matching sender.
		if mb.world.anyFailed() {
			if src != AnySource {
				if sw := c.WorldRank(src); mb.world.rankIsFailed(sw) {
					p.failPeer(call, sw) // deferred unlock releases the mutex
				}
			} else if fr := mb.world.failedOf(c.group.Ranks()); fr >= 0 {
				p.failPeer(call, fr)
			}
		}
		mb.cond.Wait()
	}
}

// Send performs a blocking standard-mode send of count elements of dtype
// from buf at byte offset off to dest (communicator-relative) with tag.
// The simulator buffers eagerly, so Send completes locally, like small
// standard-mode sends in practice.
func (p *Proc) Send(c *Comm, buf *memory.Buffer, off uint64, count int, dtype *Datatype, dest, tag int) {
	c.mustMember(p, "Send")
	if dest < 0 || dest >= c.Size() {
		p.errorf("Send", "destination rank %d out of range for communicator of size %d", dest, c.Size())
	}
	p.emit(trace.Event{
		Kind: trace.KindSend, Comm: c.id, Peer: int32(dest), Tag: int32(tag),
		OriginAddr: buf.Addr(off), OriginType: dtype.id, OriginCount: int32(count),
	}, 1)
	p.sendInternal(c, buf, off, count, dtype, dest, tag)
}

func (p *Proc) sendInternal(c *Comm, buf *memory.Buffer, off uint64, count int, dtype *Datatype, dest, tag int) {
	m := &message{
		commID: c.id,
		src:    int32(c.RankOf(p)),
		tag:    int32(tag),
		data:   pack(buf, off, dtype, count),
	}
	p.world.proc(c.WorldRank(dest)).mail.deliver(m)
}

// Recv performs a blocking receive into buf at byte offset off. src may be
// AnySource and tag AnyTag. The logged event carries the resolved source.
func (p *Proc) Recv(c *Comm, buf *memory.Buffer, off uint64, count int, dtype *Datatype, src, tag int) Status {
	c.mustMember(p, "Recv")
	if src != AnySource && (src < 0 || src >= c.Size()) {
		p.errorf("Recv", "source rank %d out of range for communicator of size %d", src, c.Size())
	}
	st := p.recvInternal(c, buf, off, count, dtype, src, tag, "Recv")
	p.emit(trace.Event{
		Kind: trace.KindRecv, Comm: c.id, Peer: int32(st.Source), Tag: int32(st.Tag),
		OriginAddr: buf.Addr(off), OriginType: dtype.id, OriginCount: int32(count),
	}, 1)
	return st
}

func (p *Proc) recvInternal(c *Comm, buf *memory.Buffer, off uint64, count int, dtype *Datatype, src, tag int, call string) Status {
	release := p.enterBlocked(call)
	m := p.mail.receive(p, c, src, tag, call)
	release()
	capacity := dtype.dm.TileBytes(count)
	if uint64(len(m.data)) > capacity {
		p.errorf(call, "message of %d bytes truncated by receive buffer of %d bytes", len(m.data), capacity)
	}
	n := int(uint64(len(m.data)) / dtype.Size())
	unpack(buf, off, dtype, n, m.data)
	return Status{Source: int(m.src), Tag: int(m.tag), Bytes: len(m.data)}
}

// Request represents a pending nonblocking operation.
type Request struct {
	p    *Proc
	id   int32
	kind trace.Kind
	done bool

	// irecv parameters, consumed at Wait.
	comm  *Comm
	buf   *memory.Buffer
	off   uint64
	count int
	dtype *Datatype
	src   int
	tag   int

	status Status
}

// Isend starts a nonblocking send. The simulator's eager buffering makes
// the data transfer immediate, so the returned request is already complete;
// Wait on it only logs the completion event.
func (p *Proc) Isend(c *Comm, buf *memory.Buffer, off uint64, count int, dtype *Datatype, dest, tag int) *Request {
	c.mustMember(p, "Isend")
	if dest < 0 || dest >= c.Size() {
		p.errorf("Isend", "destination rank %d out of range for communicator of size %d", dest, c.Size())
	}
	req := &Request{p: p, id: p.allocReqID(), kind: trace.KindIsend, done: true}
	p.emit(trace.Event{
		Kind: trace.KindIsend, Comm: c.id, Peer: int32(dest), Tag: int32(tag), Req: req.id,
		OriginAddr: buf.Addr(off), OriginType: dtype.id, OriginCount: int32(count),
	}, 1)
	p.sendInternal(c, buf, off, count, dtype, dest, tag)
	return req
}

// Irecv starts a nonblocking receive. The matching and data delivery happen
// at Wait (the simulator does not model asynchronous progress, which is a
// legal MPI implementation choice).
func (p *Proc) Irecv(c *Comm, buf *memory.Buffer, off uint64, count int, dtype *Datatype, src, tag int) *Request {
	c.mustMember(p, "Irecv")
	if src != AnySource && (src < 0 || src >= c.Size()) {
		p.errorf("Irecv", "source rank %d out of range for communicator of size %d", src, c.Size())
	}
	req := &Request{
		p: p, id: p.allocReqID(), kind: trace.KindIrecv,
		comm: c, buf: buf, off: off, count: count, dtype: dtype, src: src, tag: tag,
	}
	p.emit(trace.Event{
		Kind: trace.KindIrecv, Comm: c.id, Peer: int32(src), Tag: int32(tag), Req: req.id,
		OriginAddr: buf.Addr(off), OriginType: dtype.id, OriginCount: int32(count),
	}, 1)
	return req
}

// Wait blocks until the request completes and logs the completion event.
// For receives, the event's Peer carries the resolved source.
func (p *Proc) Wait(req *Request) Status {
	// Compare by identity of the rank, not the handle pointer: WithCallDepth
	// returns shallow copies bound to the same rank.
	if req.p.world != p.world || req.p.rank != p.rank {
		p.errorf("Wait", "request belongs to rank %d", req.p.rank)
	}
	ev := trace.Event{Kind: trace.KindWaitReq, Req: req.id}
	if req.kind == trace.KindIrecv {
		if !req.done {
			req.status = p.recvInternal(req.comm, req.buf, req.off, req.count, req.dtype, req.src, req.tag, "Wait")
			req.done = true
		}
		ev.Comm = req.comm.id
		ev.Peer = int32(req.status.Source)
		ev.Tag = int32(req.status.Tag)
	}
	req.done = true
	p.emit(ev, 1)
	return req.status
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv), avoiding
// the deadlock of two blocking calls by sending eagerly first.
func (p *Proc) Sendrecv(c *Comm,
	sendBuf *memory.Buffer, sendOff uint64, sendCount int, sendType *Datatype, dest, sendTag int,
	recvBuf *memory.Buffer, recvOff uint64, recvCount int, recvType *Datatype, src, recvTag int) Status {
	q := p.WithCallDepth(1) // log the application call site, not this wrapper
	q.Send(c, sendBuf, sendOff, sendCount, sendType, dest, sendTag)
	return q.Recv(c, recvBuf, recvOff, recvCount, recvType, src, recvTag)
}
