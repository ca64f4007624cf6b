package memory

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// AccessKind distinguishes program loads from stores.
type AccessKind uint8

const (
	Load AccessKind = iota
	Store
)

func (k AccessKind) String() string {
	if k == Load {
		return "load"
	}
	return "store"
}

// Access describes one observed program load or store on a tracked buffer.
type Access struct {
	Kind AccessKind
	Addr uint64 // simulated address of the first byte
	Size uint64 // bytes accessed
	File string // source location of the access in the application
	Line int
	Func string // routine containing the access
}

// Observer receives program loads/stores performed through a Buffer's
// accessor methods. Accesses are reported from the goroutine performing
// them; an Observer shared across buffers of one rank sees them in program
// order.
type Observer interface {
	ObserveAccess(b *Buffer, a Access)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(b *Buffer, a Access)

// ObserveAccess calls f(b, a).
func (f ObserverFunc) ObserveAccess(b *Buffer, a Access) { f(b, a) }

// AddressSpace allocates non-overlapping simulated address ranges for one
// rank. The zero value is not usable; create with NewAddressSpace.
type AddressSpace struct {
	mu   sync.Mutex
	next uint64
}

// spaceBase leaves low addresses unused so that a zero address is never a
// valid buffer address, mirroring real processes where page zero is unmapped.
const spaceBase = 0x1000

// allocAlign rounds allocations so distinct buffers never share a
// cache-line-sized granule; it also makes addresses easier to read in traces.
const allocAlign = 64

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: spaceBase}
}

// Alloc carves a fresh buffer of size bytes out of the space. name is a
// diagnostic label (typically the variable name in the application).
func (as *AddressSpace) Alloc(size uint64, name string) *Buffer {
	as.mu.Lock()
	defer as.mu.Unlock()
	b := &Buffer{
		base:  as.next,
		data:  make([]byte, size),
		name:  name,
		space: as,
	}
	as.next += (size + allocAlign - 1) / allocAlign * allocAlign
	if size == 0 {
		as.next += allocAlign
	}
	return b
}

// Buffer is a tracked allocation in a simulated address space. Accessor
// methods report loads and stores to the attached Observer; raw methods
// (ReadRaw, WriteRaw, UpdateRaw) are for the simulator runtime moving data
// at epoch close and are not reported — they are not program loads/stores.
//
// A buffer belongs to the goroutine of the rank that allocated it, and
// until Share marks it shared only that goroutine touches its data, so
// no method takes the data mutex. The MPI simulator shares a buffer
// before another rank's goroutine can reach it: when the buffer backs a
// window, or is the origin or result buffer of a queued one-sided
// operation, which completes from whichever goroutine closes the epoch
// while the target rank may concurrently access the same buffer. That
// concurrency is the very race MC-Checker detects; the mutex keeps it
// from also being a Go data race without hiding it (interleaving between
// lock acquisitions stays arbitrary, so buggy programs still compute
// corrupted results). Once shared, every accessor takes the mutex, and
// the simulator takes it once per contiguous byte run of a transfer, so
// a run lands atomically with respect to the owner's own loads and
// stores, as one real transfer of contiguous data would; MPI leaves such
// a race undefined, and either order is a legal outcome of it.
type Buffer struct {
	base     uint64
	mu       sync.Mutex // guards data once shared is set
	shared   bool       // written only by the owner, before any other goroutine reaches data
	data     []byte
	name     string
	observer Observer
	space    *AddressSpace // the space Alloc carved the buffer from
}

// Name returns the diagnostic label given at allocation.
func (b *Buffer) Name() string { return b.name }

// Base returns the simulated address of the first byte.
func (b *Buffer) Base() uint64 { return b.base }

// Size returns the buffer length in bytes.
func (b *Buffer) Size() uint64 { return uint64(len(b.data)) }

// Interval returns the simulated address range occupied by the buffer.
func (b *Buffer) Interval() Interval { return Iv(b.base, uint64(len(b.data))) }

// Addr returns the simulated address of byte offset off.
func (b *Buffer) Addr(off uint64) uint64 { return b.base + off }

// SetObserver attaches (or with nil detaches) the load/store observer.
// It must not be called concurrently with accesses to the buffer.
func (b *Buffer) SetObserver(o Observer) { b.observer = o }

// Observer returns the currently attached observer, or nil.
func (b *Buffer) Observer() Observer { return b.observer }

// Bytes exposes the backing storage without tracking or locking. It is
// intended for single-goroutine tests and for read-only inspection after a
// run; concurrent contexts must use the raw methods instead.
func (b *Buffer) Bytes() []byte { return b.data }

// Share marks the buffer as reachable from goroutines other than its
// owner's, so that from now on every access takes the data mutex. It
// must be called from the owner's goroutine before the buffer is handed
// to another one; owner is the caller's address space, and Share reports
// false, marking nothing, when the buffer was allocated from another.
// So the owner is the only writer of the mark, and it writes it once.
func (b *Buffer) Share(owner *AddressSpace) bool {
	if b.space != owner {
		return false
	}
	if !b.shared {
		b.shared = true
	}
	return true
}

// lock takes the data mutex if the buffer is shared; unlock releases it.
// Only the owner sets shared, and never while it holds the mutex.
func (b *Buffer) lock() {
	if b.shared {
		b.mu.Lock()
	}
}

func (b *Buffer) unlock() {
	if b.shared {
		b.mu.Unlock()
	}
}

// ReadRaw copies len(dst) bytes starting at off into dst, without
// reporting an access. Like every method, it takes the data lock only
// once the buffer is shared.
func (b *Buffer) ReadRaw(off uint64, dst []byte) {
	b.check(off, uint64(len(dst)))
	b.lock()
	copy(dst, b.data[off:])
	b.unlock()
}

// WriteRaw copies src into the buffer at off, without reporting an
// access.
func (b *Buffer) WriteRaw(off uint64, src []byte) {
	b.check(off, uint64(len(src)))
	b.lock()
	copy(b.data[off:], src)
	b.unlock()
}

// UpdateRaw applies fn to the byte window [off, off+size), without
// reporting an access. It is the read-modify-write primitive used by
// accumulate; on a shared buffer fn runs under the data lock.
func (b *Buffer) UpdateRaw(off, size uint64, fn func(data []byte)) {
	b.check(off, size)
	b.lock()
	fn(b.data[off : off+size])
	b.unlock()
}

func (b *Buffer) check(off, size uint64) {
	if off+size > uint64(len(b.data)) || off+size < off {
		panic(fmt.Sprintf("memory: access [%d,%d) out of range of buffer %q (%d bytes)",
			off, off+size, b.name, len(b.data)))
	}
}

// observe reports an access; skip counts frames between the application
// call site and the accessor calling observe.
func (b *Buffer) observe(kind AccessKind, off, size uint64, skip int) {
	if b.observer == nil {
		return
	}
	loc := CallerLoc(skip + 1)
	b.observer.ObserveAccess(b, Access{
		Kind: kind, Addr: b.base + off, Size: size,
		File: loc.File, Line: loc.Line, Func: loc.Func,
	})
}

// LoadBytes copies size bytes starting at off into a fresh slice,
// reporting a load.
func (b *Buffer) LoadBytes(off, size uint64) []byte {
	b.check(off, size)
	b.observe(Load, off, size, 1)
	out := make([]byte, size)
	b.lock()
	copy(out, b.data[off:off+size])
	b.unlock()
	return out
}

// StoreBytes copies p into the buffer at off, reporting a store.
func (b *Buffer) StoreBytes(off uint64, p []byte) {
	b.check(off, uint64(len(p)))
	b.observe(Store, off, uint64(len(p)), 1)
	b.lock()
	copy(b.data[off:], p)
	b.unlock()
}

// Fill stores the byte v into every position of [off, off+size),
// reporting one store.
func (b *Buffer) Fill(off, size uint64, v byte) {
	b.check(off, size)
	b.observe(Store, off, size, 1)
	b.lock()
	for i := off; i < off+size; i++ {
		b.data[i] = v
	}
	b.unlock()
}

// Uint8At loads the byte at off.
func (b *Buffer) Uint8At(off uint64) byte {
	b.check(off, 1)
	b.observe(Load, off, 1, 1)
	b.lock()
	v := b.data[off]
	b.unlock()
	return v
}

// SetUint8 stores v at off.
func (b *Buffer) SetUint8(off uint64, v byte) {
	b.check(off, 1)
	b.observe(Store, off, 1, 1)
	b.lock()
	b.data[off] = v
	b.unlock()
}

// Int32At loads a little-endian int32 at off.
func (b *Buffer) Int32At(off uint64) int32 {
	b.check(off, 4)
	b.observe(Load, off, 4, 1)
	b.lock()
	v := binary.LittleEndian.Uint32(b.data[off:])
	b.unlock()
	return int32(v)
}

// SetInt32 stores a little-endian int32 at off.
func (b *Buffer) SetInt32(off uint64, v int32) {
	b.check(off, 4)
	b.observe(Store, off, 4, 1)
	b.lock()
	binary.LittleEndian.PutUint32(b.data[off:], uint32(v))
	b.unlock()
}

// Int64At loads a little-endian int64 at off.
func (b *Buffer) Int64At(off uint64) int64 {
	b.check(off, 8)
	b.observe(Load, off, 8, 1)
	b.lock()
	v := binary.LittleEndian.Uint64(b.data[off:])
	b.unlock()
	return int64(v)
}

// SetInt64 stores a little-endian int64 at off.
func (b *Buffer) SetInt64(off uint64, v int64) {
	b.check(off, 8)
	b.observe(Store, off, 8, 1)
	b.lock()
	binary.LittleEndian.PutUint64(b.data[off:], uint64(v))
	b.unlock()
}

// Float64At loads a little-endian float64 at off.
func (b *Buffer) Float64At(off uint64) float64 {
	b.check(off, 8)
	b.observe(Load, off, 8, 1)
	b.lock()
	v := binary.LittleEndian.Uint64(b.data[off:])
	b.unlock()
	return math.Float64frombits(v)
}

// SetFloat64 stores a little-endian float64 at off.
func (b *Buffer) SetFloat64(off uint64, v float64) {
	b.check(off, 8)
	b.observe(Store, off, 8, 1)
	b.lock()
	binary.LittleEndian.PutUint64(b.data[off:], math.Float64bits(v))
	b.unlock()
}

// Float64SliceAt loads n consecutive float64 values starting at off,
// reporting a single load of 8n bytes (compilers vectorize; the paper's
// profiler likewise logs one event per instrumented access site execution).
func (b *Buffer) Float64SliceAt(off uint64, n int) []float64 {
	size := uint64(n) * 8
	b.check(off, size)
	b.observe(Load, off, size, 1)
	out := make([]float64, n)
	b.lock()
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b.data[off+uint64(i)*8:]))
	}
	b.unlock()
	return out
}

// SetFloat64Slice stores vs consecutively starting at off, reporting a
// single store of 8·len(vs) bytes.
func (b *Buffer) SetFloat64Slice(off uint64, vs []float64) {
	size := uint64(len(vs)) * 8
	b.check(off, size)
	b.observe(Store, off, size, 1)
	b.lock()
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b.data[off+uint64(i)*8:], math.Float64bits(v))
	}
	b.unlock()
}

func (b *Buffer) String() string {
	return fmt.Sprintf("%s%s", b.name, b.Interval())
}
