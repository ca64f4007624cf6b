package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
)

// Binary stream format, per rank:
//
//	magic "MCCT" | version u8 | rank varint | count-hint uvarint (v2+)
//	repeated records:
//	  0x01 strdef  | id uvarint | len uvarint | bytes   (file-name intern)
//	  0x02 event   | field-encoded Event (see below)
//	  0x00 end
//
// Events are encoded as kind byte followed by varint fields in a fixed
// order; slices/data-maps are length-prefixed. Seq is not stored (it is the
// record index); Rank is stored once in the header.
//
// Version 2 adds the count hint: the expected event count (0 when the
// writer streams and cannot know it), letting readers preallocate the
// event slice in one shot. Readers accept both versions; the hint is
// advisory and clamped, never trusted.

const (
	codecMagic     = "MCCT"
	codecVersionV1 = 1
	codecVersion   = 2

	recEnd    = 0x00
	recStrDef = 0x01
	recEvent  = 0x02

	// maxPreallocEvents caps how many events the count hint may
	// preallocate, so a hostile header cannot force a huge allocation.
	maxPreallocEvents = 1 << 16
)

// Writer encodes one rank's events to an io.Writer. Each record is
// appended to a byte slice the Writer owns and reuses, and the slice goes
// to the buffered writer once per Emit, so an event whose strings are
// already interned is encoded without allocating.
type Writer struct {
	w       *bufio.Writer
	rank    int32
	nextSeq int64
	strs    map[string]uint64
	buf     []byte
	err     error
}

// NewWriter writes the stream header for rank and returns the Writer.
// The count hint is written as 0 (unknown): a streaming writer cannot
// know how many events will follow. Use NewWriterHint when the event
// count is known up front (whole-trace encoders), so readers can
// preallocate.
func NewWriter(w io.Writer, rank int32) (*Writer, error) {
	return NewWriterHint(w, rank, 0)
}

// NewWriterHint is NewWriter with an explicit event-count hint in the
// stream header. events <= 0 writes 0 ("unknown"); the hint is advisory
// only — emitting more or fewer events than hinted is legal.
func NewWriterHint(w io.Writer, rank int32, events int) (*Writer, error) {
	wr := &Writer{w: bufio.NewWriter(w), rank: rank, strs: map[string]uint64{"": 0}}
	wr.buf = append(wr.buf, codecMagic...)
	wr.buf = append(wr.buf, codecVersion)
	wr.buf = binary.AppendVarint(wr.buf, int64(rank))
	wr.buf = binary.AppendUvarint(wr.buf, uint64(max(events, 0)))
	if wr.flushRecord(); wr.err != nil {
		return nil, wr.err
	}
	return wr, nil
}

// flushRecord hands the encoded bytes to the buffered writer and empties
// the slice, keeping its capacity. A write error sticks in w.err.
func (w *Writer) flushRecord() {
	_, w.err = w.w.Write(w.buf)
	w.buf = w.buf[:0]
}

func (w *Writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *Writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *Writer) byte1(b byte)     { w.buf = append(w.buf, b) }

func (w *Writer) internString(s string) uint64 {
	if id, ok := w.strs[s]; ok {
		return id
	}
	id := uint64(len(w.strs))
	w.strs[s] = id
	w.byte1(recStrDef)
	w.uvarint(id)
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
	return id
}

// Emit implements Sink: it appends ev to the stream. The event's Rank must
// match the writer's rank and Seq must be the next dense sequence number;
// a zero Seq/Rank event is stamped automatically.
func (w *Writer) Emit(ev Event) {
	if w.err != nil {
		return
	}
	if ev.Rank == 0 && ev.Seq == 0 {
		ev.Rank, ev.Seq = w.rank, w.nextSeq
	}
	if ev.Rank != w.rank || ev.Seq != w.nextSeq {
		w.err = fmt.Errorf("trace: event %v out of order for rank %d writer (want seq %d)",
			ev.ID(), w.rank, w.nextSeq)
		return
	}
	w.nextSeq++

	fileID := w.internString(ev.File)
	funcID := w.internString(ev.Func)
	w.byte1(recEvent)
	w.byte1(byte(ev.Kind))
	w.uvarint(fileID)
	w.uvarint(funcID)
	w.varint(int64(ev.Line))
	w.varint(int64(ev.Comm))
	w.varint(int64(ev.Peer))
	w.varint(int64(ev.Tag))
	w.varint(int64(ev.Req))
	w.varint(int64(ev.Win))
	w.varint(int64(ev.Target))
	w.byte1(byte(ev.Lock))
	w.byte1(byte(ev.AccOp))
	w.uvarint(ev.OriginAddr)
	w.varint(int64(ev.OriginType))
	w.varint(int64(ev.OriginCount))
	w.uvarint(ev.TargetDisp)
	w.varint(int64(ev.TargetType))
	w.varint(int64(ev.TargetCount))
	w.uvarint(ev.ResultAddr)
	w.varint(int64(ev.ResultType))
	w.varint(int64(ev.ResultCount))
	w.varint(int64(ev.Assert))
	w.uvarint(ev.Addr)
	w.uvarint(ev.Size)
	w.varint(int64(ev.TypeID))
	w.uvarint(uint64(len(ev.TypeMap.Segments)))
	for _, s := range ev.TypeMap.Segments {
		w.uvarint(s.Disp)
		w.uvarint(s.Len)
	}
	w.uvarint(ev.TypeMap.Extent)
	w.uvarint(uint64(len(ev.Members)))
	for _, m := range ev.Members {
		w.varint(int64(m))
	}
	w.uvarint(ev.WinBase)
	w.uvarint(ev.WinSize)
	w.uvarint(uint64(ev.DispUnit))
	w.flushRecord()
}

// Close terminates and flushes the stream.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	w.byte1(recEnd)
	if w.flushRecord(); w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// reader is the per-stream decode context: the buffered reader, the
// string intern table, and a scratch buffer for string definitions. It is
// recycled through readerPool across streams — decoding a trace directory
// touches one context per rank file, and without pooling each decode pays
// a fresh bufio buffer, intern table, and scratch allocation.
type reader struct {
	r       *bufio.Reader
	strs    []string
	scratch []byte
}

// decodeReaderBufSize is the bufio buffer for pooled decode contexts —
// large enough that typical rank files decode in a few refills.
const decodeReaderBufSize = 1 << 16

var readerPool sync.Pool // of *reader

var (
	decodePoolHits   atomic.Int64
	decodePoolMisses atomic.Int64
)

// DecodePoolStats returns the cumulative decode-context pool hits and
// misses. ReadDirWith exposes the per-read deltas as
// mcchecker_pipeline_decode_pool_{hits,misses}_total.
func DecodePoolStats() (hits, misses int64) {
	return decodePoolHits.Load(), decodePoolMisses.Load()
}

// getReader returns a decode context wrapping r, recycled when possible.
func getReader(r io.Reader) *reader {
	if v := readerPool.Get(); v != nil {
		rd := v.(*reader)
		decodePoolHits.Add(1)
		rd.r.Reset(r)
		rd.strs = rd.strs[:1]
		return rd
	}
	decodePoolMisses.Add(1)
	return &reader{r: bufio.NewReaderSize(r, decodeReaderBufSize), strs: []string{""}}
}

// putReader recycles a decode context. The interned strings handed out to
// decoded events are immutable Go strings; dropping the table references
// here cannot invalidate them.
func (rd *reader) release() {
	strs := rd.strs[:cap(rd.strs)]
	for i := 1; i < len(strs); i++ {
		strs[i] = "" // do not pin decoded file/func names beyond this stream
	}
	rd.strs = strs[:1]
	rd.r.Reset(nil)
	readerPool.Put(rd)
}

func (rd *reader) uvarint() (uint64, error) { return binary.ReadUvarint(rd.r) }
func (rd *reader) varint() (int64, error)   { return binary.ReadVarint(rd.r) }

// readHeader parses the stream header (magic, version, rank, and the v2
// count hint) shared by the strict and salvage decoders. The hint is 0
// for v1 streams and for v2 writers that streamed without knowing their
// event count.
func (rd *reader) readHeader() (rank int32, hint uint64, err error) {
	var hdr [len(codecMagic) + 1]byte
	if _, err := io.ReadFull(rd.r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:len(codecMagic)]) != codecMagic {
		return 0, 0, errors.New("trace: bad magic")
	}
	version := hdr[len(codecMagic)]
	if version != codecVersionV1 && version != codecVersion {
		return 0, 0, fmt.Errorf("trace: unsupported version %d", version)
	}
	rank64, err := rd.varint()
	if err != nil {
		return 0, 0, fmt.Errorf("trace: reading rank: %w", err)
	}
	if version >= codecVersion {
		if hint, err = rd.uvarint(); err != nil {
			return 0, 0, fmt.Errorf("trace: reading event-count hint: %w", err)
		}
	}
	return int32(rank64), hint, nil
}

// preallocEvents sizes a trace's event slice from the header hint,
// clamped against hostile or mistaken headers.
func preallocEvents(t *Trace, hint uint64) {
	if hint == 0 {
		return
	}
	if hint > maxPreallocEvents {
		hint = maxPreallocEvents
	}
	t.Events = make([]Event, 0, hint)
}

func (rd *reader) varint32(dst *int32, err *error) {
	if *err != nil {
		return
	}
	v, e := rd.varint()
	if e != nil {
		*err = e
		return
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		*err = fmt.Errorf("trace: field value %d overflows int32", v)
		return
	}
	*dst = int32(v)
}

func (rd *reader) uvarint64(dst *uint64, err *error) {
	if *err != nil {
		return
	}
	v, e := rd.uvarint()
	if e != nil {
		*err = e
		return
	}
	*dst = v
}

// readStrDef decodes one string-definition record into the intern table,
// reusing the context's scratch buffer for the byte read.
func (rd *reader) readStrDef() error {
	id, err := rd.uvarint()
	if err != nil {
		return err
	}
	n, err := rd.uvarint()
	if err != nil {
		return err
	}
	if n > 1<<20 {
		return fmt.Errorf("trace: string of %d bytes too long", n)
	}
	if uint64(cap(rd.scratch)) < n {
		rd.scratch = make([]byte, n)
	}
	buf := rd.scratch[:n]
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		return err
	}
	if id != uint64(len(rd.strs)) {
		return fmt.Errorf("trace: string id %d out of order", id)
	}
	rd.strs = append(rd.strs, string(buf))
	return nil
}

// ReadTrace decodes one rank stream produced by Writer (codec version 1
// or 2).
func ReadTrace(r io.Reader) (*Trace, error) {
	rd := getReader(r)
	defer rd.release()
	rank, hint, err := rd.readHeader()
	if err != nil {
		return nil, err
	}
	t := &Trace{Rank: rank}
	preallocEvents(t, hint)

	for {
		tag, err := rd.r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: reading record tag: %w", err)
		}
		switch tag {
		case recEnd:
			return t, nil
		case recStrDef:
			if err := rd.readStrDef(); err != nil {
				return nil, err
			}
		case recEvent:
			ev, err := rd.readEvent(t.Rank, int64(len(t.Events)))
			if err != nil {
				return nil, fmt.Errorf("trace: rank %d event %d: %w", t.Rank, len(t.Events), err)
			}
			t.Events = append(t.Events, ev)
		default:
			return nil, fmt.Errorf("trace: unknown record tag %#x", tag)
		}
	}
}

func (rd *reader) readEvent(rank int32, seq int64) (Event, error) {
	var ev Event
	ev.Rank, ev.Seq = rank, seq
	kb, err := rd.r.ReadByte()
	if err != nil {
		return ev, err
	}
	ev.Kind = Kind(kb)
	if ev.Kind == KindInvalid || ev.Kind >= kindMax {
		return ev, fmt.Errorf("invalid kind %d", kb)
	}

	fileID, err := rd.uvarint()
	if err != nil {
		return ev, err
	}
	if fileID >= uint64(len(rd.strs)) {
		return ev, fmt.Errorf("undefined string id %d", fileID)
	}
	ev.File = rd.strs[fileID]
	funcID, err := rd.uvarint()
	if err != nil {
		return ev, err
	}
	if funcID >= uint64(len(rd.strs)) {
		return ev, fmt.Errorf("undefined string id %d", funcID)
	}
	ev.Func = rd.strs[funcID]

	rd.varint32(&ev.Line, &err)
	rd.varint32(&ev.Comm, &err)
	rd.varint32(&ev.Peer, &err)
	rd.varint32(&ev.Tag, &err)
	rd.varint32(&ev.Req, &err)
	rd.varint32(&ev.Win, &err)
	rd.varint32(&ev.Target, &err)
	if err != nil {
		return ev, err
	}
	lb, err := rd.r.ReadByte()
	if err != nil {
		return ev, err
	}
	ev.Lock = LockType(lb)
	ab, err := rd.r.ReadByte()
	if err != nil {
		return ev, err
	}
	ev.AccOp = AccOp(ab)

	rd.uvarint64(&ev.OriginAddr, &err)
	rd.varint32(&ev.OriginType, &err)
	rd.varint32(&ev.OriginCount, &err)
	rd.uvarint64(&ev.TargetDisp, &err)
	rd.varint32(&ev.TargetType, &err)
	rd.varint32(&ev.TargetCount, &err)
	rd.uvarint64(&ev.ResultAddr, &err)
	rd.varint32(&ev.ResultType, &err)
	rd.varint32(&ev.ResultCount, &err)
	rd.varint32(&ev.Assert, &err)
	rd.uvarint64(&ev.Addr, &err)
	rd.uvarint64(&ev.Size, &err)
	rd.varint32(&ev.TypeID, &err)
	if err != nil {
		return ev, err
	}

	nseg, err := rd.uvarint()
	if err != nil {
		return ev, err
	}
	if nseg > 1<<16 {
		return ev, fmt.Errorf("datatype with %d segments too large", nseg)
	}
	if nseg > 0 {
		ev.TypeMap.Segments = make([]memory.Segment, nseg)
		for i := range ev.TypeMap.Segments {
			rd.uvarint64(&ev.TypeMap.Segments[i].Disp, &err)
			rd.uvarint64(&ev.TypeMap.Segments[i].Len, &err)
		}
	}
	rd.uvarint64(&ev.TypeMap.Extent, &err)
	if err != nil {
		return ev, err
	}

	nmem, err := rd.uvarint()
	if err != nil {
		return ev, err
	}
	if nmem > 1<<20 {
		return ev, fmt.Errorf("communicator with %d members too large", nmem)
	}
	if nmem > 0 {
		ev.Members = make([]int32, nmem)
		for i := range ev.Members {
			rd.varint32(&ev.Members[i], &err)
		}
	}
	rd.uvarint64(&ev.WinBase, &err)
	rd.uvarint64(&ev.WinSize, &err)
	var unit uint64
	rd.uvarint64(&unit, &err)
	ev.DispUnit = uint32(unit)
	return ev, err
}
