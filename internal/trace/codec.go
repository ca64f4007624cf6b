package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

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
// Version 2 adds the count hint: the event count, letting readers
// preallocate the event slice in one shot. EncodeTrace and WriteDir write
// the exact count; a hint of 0 means unknown. Readers accept both
// versions; the hint is advisory and clamped, never trusted.

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

// EncodeTrace renders one rank's trace in the binary stream format, with
// the event count in the header so decoders preallocate. The stream is
// encoded into pooled chunks, then copied once into a result of its
// exact size.
func EncodeTrace(t *Trace) ([]byte, error) {
	e := getEncoder(nil)
	defer e.release()
	if err := e.encode(t); err != nil {
		return nil, err
	}
	out := make([]byte, 0, e.n)
	for _, c := range e.full {
		out = append(out, c...)
	}
	return out, nil
}

// encodeTrace writes t to w as one complete stream, in chunks of at least
// chunkSize bytes but the last, each written whole. It returns the number
// of bytes written.
func encodeTrace(w io.Writer, t *Trace) (int64, error) {
	e := getEncoder(w)
	defer e.release()
	err := e.encode(t)
	return e.n, err
}

const (
	// chunkSize is how many bytes the encoder gathers before it writes
	// them, so that a rank file takes one write per 32 KB, not one per
	// record or per 4 KB.
	chunkSize = 32 << 10
	// chunkCap leaves room past chunkSize for the record that crosses
	// it; only a record longer than the room (a datatype of hundreds of
	// segments) makes a chunk grow.
	chunkCap = chunkSize + 4<<10
)

// encoder is the state of one stream's encoding. Records are appended to
// buf, a chunk that is written whole (or, for EncodeTrace, kept in full)
// once it holds chunkSize bytes. Encoders and chunks are pooled, so
// writing a stream allocates nothing in proportion to its size, and an
// event whose strings are already interned is encoded without
// allocating.
type encoder struct {
	buf  []byte
	w    io.Writer         // where a full chunk is written; nil keeps it in full
	full [][]byte          // EncodeTrace's chunks, in stream order
	n    int64             // bytes written to w or kept in full
	strs map[string]uint64 // string ids in order of first occurrence; "" is 0
	// seen caches the ids of recent strings by data pointer and length, in
	// front of strs: an event's file and function names come from a
	// site cache, so a repeated name is the same string, found without
	// hashing it.
	seen [64]seenStr
}

type seenStr struct {
	data *byte
	n    int
	id   uint64
}

var (
	encoderPool sync.Pool // of *encoder
	chunkPool   sync.Pool // of *[chunkCap]byte
)

// newChunk returns an empty chunk of capacity chunkCap.
func newChunk() []byte {
	if c, ok := chunkPool.Get().(*[chunkCap]byte); ok {
		return c[:0]
	}
	return make([]byte, 0, chunkCap)
}

// putChunk recycles a chunk that has not grown past chunkCap.
func putChunk(c []byte) {
	if cap(c) == chunkCap {
		chunkPool.Put((*[chunkCap]byte)(c[:chunkCap]))
	}
}

// getEncoder returns an encoder writing to w, or keeping its chunks when
// w is nil.
func getEncoder(w io.Writer) *encoder {
	e, _ := encoderPool.Get().(*encoder)
	if e == nil {
		e = &encoder{buf: newChunk(), strs: map[string]uint64{"": 0}}
	}
	e.w = w
	return e
}

// release recycles the encoder and EncodeTrace's chunks. Clearing the
// string tables keeps the pool from pinning the stream's strings.
func (e *encoder) release() {
	for _, c := range e.full {
		putChunk(c)
	}
	clear(e.full)
	e.full = e.full[:0]
	if cap(e.buf) != chunkCap {
		e.buf = newChunk()
	}
	e.buf, e.w, e.n = e.buf[:0], nil, 0
	clear(e.strs)
	e.strs[""] = 0
	clear(e.seen[:])
	encoderPool.Put(e)
}

// encode encodes t as one complete stream: the header with the event
// count, then each event's new string definitions and its event record,
// then the end record. Event i must be (t.Rank, i), the rule Set.Validate
// checks.
func (e *encoder) encode(t *Trace) error {
	e.buf = append(e.buf, codecMagic...)
	e.buf = append(e.buf, codecVersion)
	e.varint(int64(t.Rank))
	e.uvarint(uint64(len(t.Events)))
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.Rank != t.Rank || ev.Seq != int64(i) {
			return fmt.Errorf("trace: event %v out of order for rank %d writer (want seq %d)",
				ev.ID(), t.Rank, i)
		}
		e.event(ev)
		if len(e.buf) >= chunkSize {
			if err := e.flush(); err != nil {
				return err
			}
		}
	}
	e.buf = append(e.buf, recEnd)
	return e.flush()
}

// flush writes the chunk whole and empties it, or hands it to full and
// takes a fresh one.
func (e *encoder) flush() error {
	if e.w == nil {
		e.n += int64(len(e.buf))
		e.full = append(e.full, e.buf)
		e.buf = newChunk()
		return nil
	}
	m, err := e.w.Write(e.buf)
	e.n += int64(m)
	e.buf = e.buf[:0]
	return err
}

// uvarint and varint append a varint; a value below 0x80, nearly every
// field of a record, takes one append without a further call.
func (e *encoder) uvarint(v uint64) {
	if v < 0x80 {
		e.buf = append(e.buf, byte(v))
		return
	}
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) varint(v int64) { e.uvarint(uint64(v)<<1 ^ uint64(v>>63)) } // zig-zag

// str returns s's string id, appending its definition record the first
// time s is seen.
func (e *encoder) str(s string) uint64 {
	if len(s) == 0 {
		return 0
	}
	data := unsafe.StringData(s)
	c := &e.seen[uintptr(unsafe.Pointer(data))>>3%uintptr(len(e.seen))]
	if c.data == data && c.n == len(s) {
		return c.id
	}
	id, ok := e.strs[s]
	if !ok {
		id = uint64(len(e.strs))
		e.strs[s] = id
		e.buf = append(e.buf, recStrDef)
		e.uvarint(id)
		e.uvarint(uint64(len(s)))
		e.buf = append(e.buf, s...)
	}
	*c = seenStr{data: data, n: len(s), id: id}
	return id
}

// event appends ev's event record, preceded by the definitions of its
// file and function names if they are new. Seq is not stored and Rank is
// in the header.
func (e *encoder) event(ev *Event) {
	fileID := e.str(ev.File)
	funcID := e.str(ev.Func)
	e.buf = append(e.buf, recEvent, byte(ev.Kind))
	e.uvarint(fileID)
	e.uvarint(funcID)
	e.varint(int64(ev.Line))
	e.varint(int64(ev.Comm))
	e.varint(int64(ev.Peer))
	e.varint(int64(ev.Tag))
	e.varint(int64(ev.Req))
	e.varint(int64(ev.Win))
	e.varint(int64(ev.Target))
	e.buf = append(e.buf, byte(ev.Lock), byte(ev.AccOp))
	e.uvarint(ev.OriginAddr)
	e.varint(int64(ev.OriginType))
	e.varint(int64(ev.OriginCount))
	e.uvarint(ev.TargetDisp)
	e.varint(int64(ev.TargetType))
	e.varint(int64(ev.TargetCount))
	e.uvarint(ev.ResultAddr)
	e.varint(int64(ev.ResultType))
	e.varint(int64(ev.ResultCount))
	e.varint(int64(ev.Assert))
	e.uvarint(ev.Addr)
	e.uvarint(ev.Size)
	def := ev.def() // zeros when ev has no Def
	e.varint(int64(def.TypeID))
	e.uvarint(uint64(len(def.TypeMap.Segments)))
	for _, s := range def.TypeMap.Segments {
		e.uvarint(s.Disp)
		e.uvarint(s.Len)
	}
	e.uvarint(def.TypeMap.Extent)
	e.uvarint(uint64(len(def.Members)))
	for _, m := range def.Members {
		e.varint(int64(m))
	}
	e.uvarint(def.WinBase)
	e.uvarint(def.WinSize)
	e.uvarint(uint64(def.DispUnit))
}

// decoder is the per-read decode context: a cursor over one stream's
// bytes with a sticky error, the string intern table, and the buffer rank
// files are read into. It is recycled through decoderPool across reads:
// without pooling each read pays a fresh intern table and file buffer.
type decoder struct {
	buf      []byte // the stream being decoded
	off      int    // cursor into buf
	err      error  // first decode error; every read after it returns zero
	strs     []string
	defs     []Def        // the read's current block of Defs (see newDef)
	defsUsed int          // Defs of the block already handed out
	file     bytes.Buffer // a rank file's bytes, reused from file to file
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
	d.buf, d.off, d.err, d.defs, d.defsUsed = nil, 0, nil, nil, 0
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

// The readers of varints and string ids each have a fast path and a slow
// one. The fast path decodes a one-byte varint, which nearly every field
// of a record is, without a further call. The slow path is the whole
// reader: the fast path hands it everything else (longer varints, the end
// of the stream, a decoder that has already failed), so every check and
// error text is the slow path's.

// uvarint reads an unsigned varint. Its errors are binary.ReadUvarint's:
// io.EOF when nothing is left, io.ErrUnexpectedEOF when the varint is cut
// short, and an overflow past 64 bits.
func (d *decoder) uvarint() uint64 {
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 && d.err == nil {
		d.off++
		return uint64(d.buf[d.off-1])
	}
	return d.uvarintSlow()
}

// uvarintSlow is uvarint for anything but a one-byte varint.
func (d *decoder) uvarintSlow() uint64 {
	if d.err != nil {
		return 0
	}
	rest := d.buf[d.off:]
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
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 && d.err == nil {
		b := int32(d.buf[d.off])
		d.off++
		return b>>1 ^ -(b & 1) // zig-zag
	}
	return d.varint32Slow()
}

// varint32Slow is varint32 for anything but a one-byte varint.
func (d *decoder) varint32Slow() int32 {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail(fmt.Errorf("trace: field value %d overflows int32", v))
		return 0
	}
	return int32(v)
}

// str reads a string id and returns its interned string.
func (d *decoder) str() string {
	if d.off < len(d.buf) && d.err == nil {
		if id := d.buf[d.off]; id < 0x80 && int(id) < len(d.strs) {
			d.off++
			return d.strs[id]
		}
	}
	return d.strSlow()
}

// strSlow is str for anything but a one-byte id of a defined string.
func (d *decoder) strSlow() string {
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
// count hint. The hint is 0 for v1 streams and for v2 streams whose
// writer did not know its event count.
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

// ReadTrace decodes one rank stream produced by EncodeTrace or WriteDir
// (codec version 1 or 2). It fails on any stream that does not end with its end record.
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
			// The record is decoded in its slot. A slot past the slice's
			// length is zero: make and append zero it, and a record that
			// fails to decode ends the read with its slot zeroed again.
			n := len(t.Events)
			t.Events = slices.Grow(t.Events, 1)[:n+1]
			ev := &t.Events[n]
			ev.Rank, ev.Seq = rank, int64(n)
			if err := d.event(ev); err != nil {
				*ev = Event{}
				t.Events = t.Events[:n]
				return stop(fmt.Errorf("trace: rank %d event %d: %w", rank, n, err),
					"event %d undecodable: %v", n, err)
			}
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
// the field order encoder.event writes.
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
	if d.err == nil && bytes.HasPrefix(d.buf[d.off:], noDefTail) {
		d.off += len(noDefTail)
		return nil
	}
	var def Def
	def.TypeID = d.varint32()

	nseg := d.uvarint()
	if nseg > 1<<16 {
		d.fail(fmt.Errorf("datatype with %d segments too large", nseg))
	}
	if nseg > 0 && d.err == nil {
		def.TypeMap.Segments = make([]memory.Segment, nseg)
		for i := range def.TypeMap.Segments {
			def.TypeMap.Segments[i].Disp = d.uvarint()
			def.TypeMap.Segments[i].Len = d.uvarint()
		}
	}
	def.TypeMap.Extent = d.uvarint()

	nmem := d.uvarint()
	if nmem > 1<<20 {
		d.fail(fmt.Errorf("communicator with %d members too large", nmem))
	}
	if nmem > 0 && d.err == nil {
		def.Members = make([]int32, nmem)
		for i := range def.Members {
			def.Members[i] = d.varint32()
		}
	}
	def.WinBase = d.uvarint()
	def.WinSize = d.uvarint()
	def.DispUnit = uint32(d.uvarint())
	if d.err == nil && !def.isZero() {
		ev.Def = d.newDef()
		*ev.Def = def
	}
	return d.err
}

// noDefTail is how the record of an event without a Def ends: its seven
// definition fields (type id, segment count, extent, member count, window
// base, size and unit) as zero varints. Nine events in ten end so, and
// the decoder skips the tail in one comparison.
var noDefTail = make([]byte, 7)

// newDef returns a zero Def carved from the read's current block of Defs,
// starting a block twice the size of the last (from 8 up to 512) when it
// is used up. One allocation per Def would add one for every definition
// event; blocks cost a handful per read. The streams of one read, such as
// the rank files of a directory, share its blocks, since their events go
// into one Set; release ends the read, so no block outlives it.
func (d *decoder) newDef() *Def {
	if d.defsUsed == len(d.defs) {
		d.defs, d.defsUsed = make([]Def, min(max(2*len(d.defs), 8), 512)), 0
	}
	d.defsUsed++
	return &d.defs[d.defsUsed-1]
}
