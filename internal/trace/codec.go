package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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

// decoder is the per-read decode context: a cursor over one stream's
// bytes with a sticky error, the string intern table, and the buffer rank
// files are read into. It is recycled through decoderPool across reads:
// without pooling each read pays a fresh intern table and file buffer.
type decoder struct {
	buf  []byte // the stream being decoded
	off  int    // cursor into buf
	err  error  // first decode error; every read after it returns zero
	strs []string
	file bytes.Buffer // a rank file's bytes, reused from file to file
}

var decoderPool sync.Pool // of *decoder

var (
	decodePoolHits   atomic.Int64
	decodePoolMisses atomic.Int64
)

// DecodePoolStats returns the cumulative decode-context pool hits and
// misses. Every read takes one context; the directory and stream readers
// also count theirs as mcchecker_pipeline_decode_pool_{hits,misses}_total.
func DecodePoolStats() (hits, misses int64) {
	return decodePoolHits.Load(), decodePoolMisses.Load()
}

// getDecoder returns a decode context, recycled when possible; hit
// reports whether it came from the pool.
func getDecoder() (d *decoder, hit bool) {
	if v := decoderPool.Get(); v != nil {
		decodePoolHits.Add(1)
		return v.(*decoder), true
	}
	decodePoolMisses.Add(1)
	return &decoder{strs: []string{""}}, false
}

// release recycles a decode context. The interned strings handed out to
// decoded events are immutable Go strings copied out of the stream bytes;
// dropping the table references here cannot invalidate them.
func (d *decoder) release() {
	clear(d.strs[1:cap(d.strs)]) // do not pin decoded file/func names beyond this read
	d.strs = d.strs[:1]
	d.buf, d.off, d.err = nil, 0, nil
	decoderPool.Put(d)
}

// readFile reads a rank file into the context's file buffer. The bytes
// stay valid until the next readFile.
func (d *decoder) readFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d.file.Reset()
	_, err = d.file.ReadFrom(f)
	return d.file.Bytes(), err
}

// errVarintOverflow words a varint longer than 64 bits as
// binary.ReadUvarint does.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// fail records err unless an earlier error is already recorded.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// byte1 reads one byte; at the end of the stream it records io.EOF.
func (d *decoder) byte1() byte {
	if d.err == nil && d.off < len(d.buf) {
		b := d.buf[d.off]
		d.off++
		return b
	}
	d.fail(io.EOF)
	return 0
}

// uvarint reads an unsigned varint. Its errors are binary.ReadUvarint's:
// io.EOF when nothing is left, io.ErrUnexpectedEOF when the varint is cut
// short, and an overflow past 64 bits.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	rest := d.buf[d.off:]
	if len(rest) > 0 && rest[0] < 0x80 {
		d.off++
		return uint64(rest[0])
	}
	v, n := binary.Uvarint(rest)
	switch {
	case n > 0:
		d.off += n
		return v
	case len(rest) == 0:
		d.err = io.EOF
	case n < 0 || len(rest) >= binary.MaxVarintLen64:
		d.err = errVarintOverflow
	default:
		d.err = io.ErrUnexpectedEOF
	}
	return 0
}

// varint reads a zig-zag signed varint.
func (d *decoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// varint32 reads a signed varint that must fit an int32.
func (d *decoder) varint32() int32 {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail(fmt.Errorf("trace: field value %d overflows int32", v))
		return 0
	}
	return int32(v)
}

// str reads a string id and returns its interned string.
func (d *decoder) str() string {
	id := d.uvarint()
	if d.err == nil && id >= uint64(len(d.strs)) {
		d.err = fmt.Errorf("undefined string id %d", id)
	}
	if d.err != nil {
		return ""
	}
	return d.strs[id]
}

// header parses the stream header: magic, version, rank, and the v2
// count hint. The hint is 0 for v1 streams and for v2 writers that
// streamed without knowing their event count.
func (d *decoder) header() (rank int32, hint uint64, err error) {
	const n = len(codecMagic) + 1
	if len(d.buf) < n {
		err := io.ErrUnexpectedEOF
		if len(d.buf) == 0 {
			err = io.EOF
		}
		return 0, 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(d.buf[:len(codecMagic)]) != codecMagic {
		return 0, 0, errors.New("trace: bad magic")
	}
	version := d.buf[len(codecMagic)]
	if version != codecVersionV1 && version != codecVersion {
		return 0, 0, fmt.Errorf("trace: unsupported version %d", version)
	}
	d.off = n
	rank64 := d.varint()
	if d.err != nil {
		return 0, 0, fmt.Errorf("trace: reading rank: %w", d.err)
	}
	if version >= codecVersion {
		if hint = d.uvarint(); d.err != nil {
			return 0, 0, fmt.Errorf("trace: reading event-count hint: %w", d.err)
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

// ReadTrace decodes one rank stream produced by Writer (codec version 1
// or 2). It fails on any stream that does not end with its end record.
func ReadTrace(data []byte) (*Trace, error) {
	d, _ := getDecoder()
	defer d.release()
	t, _, err := d.decode(data)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// decode reads one rank stream: the one record loop behind every reader.
// It returns the longest valid event prefix (nil when the header is
// unreadable), what salvage recovered, and the error a strict read
// reports, which is nil exactly when the stream ended with its end record.
func (d *decoder) decode(data []byte) (*Trace, SalvageResult, error) {
	d.buf, d.off, d.err = data, 0, nil
	d.strs = d.strs[:1]
	rank, hint, err := d.header()
	if err != nil {
		return nil, SalvageResult{}, err
	}
	t := &Trace{Rank: rank}
	preallocEvents(t, hint)
	stop := func(strict error, format string, args ...any) (*Trace, SalvageResult, error) {
		return t, SalvageResult{Events: len(t.Events), Reason: fmt.Sprintf(format, args...)}, strict
	}
	for {
		tag := d.byte1()
		if d.err != nil {
			return stop(fmt.Errorf("trace: reading record tag: %w", d.err),
				"stream ended without end record: %v", d.err)
		}
		switch tag {
		case recEnd:
			return t, SalvageResult{Complete: true, Events: len(t.Events)}, nil
		case recStrDef:
			if err := d.strDef(); err != nil {
				return stop(err, "bad string definition: %v", err)
			}
		case recEvent:
			n := len(t.Events)
			ev := Event{Rank: rank, Seq: int64(n)}
			if err := d.event(&ev); err != nil {
				return stop(fmt.Errorf("trace: rank %d event %d: %w", rank, n, err),
					"event %d undecodable: %v", n, err)
			}
			t.Events = append(t.Events, ev)
		default:
			return stop(fmt.Errorf("trace: unknown record tag %#x", tag), "unknown record tag %#x", tag)
		}
	}
}

// strDef decodes one string-definition record into the intern table.
func (d *decoder) strDef() error {
	id := d.uvarint()
	n := d.uvarint()
	if d.err != nil {
		return d.err
	}
	if n > 1<<20 {
		return fmt.Errorf("trace: string of %d bytes too long", n)
	}
	rest := d.buf[d.off:]
	if uint64(len(rest)) < n {
		if len(rest) == 0 {
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	if id != uint64(len(d.strs)) {
		return fmt.Errorf("trace: string id %d out of order", id)
	}
	d.strs = append(d.strs, string(rest[:n]))
	d.off += int(n)
	return nil
}

// event decodes one event record into ev, whose Rank and Seq are set, in
// the field order Emit writes.
func (d *decoder) event(ev *Event) error {
	kb := d.byte1()
	if d.err != nil {
		return d.err
	}
	ev.Kind = Kind(kb)
	if ev.Kind == KindInvalid || ev.Kind >= kindMax {
		return fmt.Errorf("invalid kind %d", kb)
	}
	ev.File = d.str()
	ev.Func = d.str()
	ev.Line = d.varint32()
	ev.Comm = d.varint32()
	ev.Peer = d.varint32()
	ev.Tag = d.varint32()
	ev.Req = d.varint32()
	ev.Win = d.varint32()
	ev.Target = d.varint32()
	ev.Lock = LockType(d.byte1())
	ev.AccOp = AccOp(d.byte1())
	ev.OriginAddr = d.uvarint()
	ev.OriginType = d.varint32()
	ev.OriginCount = d.varint32()
	ev.TargetDisp = d.uvarint()
	ev.TargetType = d.varint32()
	ev.TargetCount = d.varint32()
	ev.ResultAddr = d.uvarint()
	ev.ResultType = d.varint32()
	ev.ResultCount = d.varint32()
	ev.Assert = d.varint32()
	ev.Addr = d.uvarint()
	ev.Size = d.uvarint()
	ev.TypeID = d.varint32()

	nseg := d.uvarint()
	if nseg > 1<<16 {
		d.fail(fmt.Errorf("datatype with %d segments too large", nseg))
	}
	if nseg > 0 && d.err == nil {
		ev.TypeMap.Segments = make([]memory.Segment, nseg)
		for i := range ev.TypeMap.Segments {
			ev.TypeMap.Segments[i].Disp = d.uvarint()
			ev.TypeMap.Segments[i].Len = d.uvarint()
		}
	}
	ev.TypeMap.Extent = d.uvarint()

	nmem := d.uvarint()
	if nmem > 1<<20 {
		d.fail(fmt.Errorf("communicator with %d members too large", nmem))
	}
	if nmem > 0 && d.err == nil {
		ev.Members = make([]int32, nmem)
		for i := range ev.Members {
			ev.Members[i] = d.varint32()
		}
	}
	ev.WinBase = d.uvarint()
	ev.WinSize = d.uvarint()
	ev.DispUnit = uint32(d.uvarint())
	return d.err
}
