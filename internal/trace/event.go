package trace

import (
	"fmt"
	"path"
	"strconv"

	"repro/internal/memory"
)

// Kind identifies the MPI call or memory access an Event records.
type Kind uint8

const (
	KindInvalid Kind = iota

	// Local memory accesses on instrumented (relevant) buffers.
	KindLoad
	KindStore

	// One-sided communication calls.
	KindPut
	KindGet
	KindAccumulate

	// One-sided initialization and synchronization calls.
	KindWinCreate
	KindWinFree
	KindWinFence
	KindWinLock
	KindWinUnlock
	KindWinPost
	KindWinStart
	KindWinComplete
	KindWinWait

	// General synchronization: point-to-point.
	KindSend
	KindRecv
	KindIsend
	KindIrecv
	KindWaitReq

	// General synchronization: collectives.
	KindBarrier
	KindBcast
	KindReduce
	KindAllreduce
	KindGather
	KindScatter
	KindAllgather
	KindAlltoall

	// Support routines whose effects the analyzer must replay.
	KindCommCreate // user-defined communicator; Members lists world ranks
	KindTypeCreate // user-defined datatype; TypeMap holds its data-map

	// MPI-3 one-sided extensions (paper §V discusses applying the analysis
	// to the MPI-3 model; these kinds support that extension).
	KindWinLockAll // passive-target epoch to every rank
	KindWinUnlockAll
	KindWinFlush      // complete ops to Target (-1 = all) at origin and target
	KindWinFlushLocal // complete ops to Target (-1 = all) at origin only
	KindGetAccumulate // atomic read-modify-write returning the old value
	KindFetchOp       // single-element Get_accumulate
	KindCompareSwap   // atomic compare-and-swap

	kindMax // sentinel
)

// KindCount is one past the largest valid Kind, for building per-kind
// lookup tables (e.g. the observability layer's per-kind event counters).
const KindCount = int(kindMax)

var kindNames = [...]string{
	KindInvalid:     "invalid",
	KindLoad:        "load",
	KindStore:       "store",
	KindPut:         "Put",
	KindGet:         "Get",
	KindAccumulate:  "Accumulate",
	KindWinCreate:   "Win_create",
	KindWinFree:     "Win_free",
	KindWinFence:    "Win_fence",
	KindWinLock:     "Win_lock",
	KindWinUnlock:   "Win_unlock",
	KindWinPost:     "Win_post",
	KindWinStart:    "Win_start",
	KindWinComplete: "Win_complete",
	KindWinWait:     "Win_wait",
	KindSend:        "Send",
	KindRecv:        "Recv",
	KindIsend:       "Isend",
	KindIrecv:       "Irecv",
	KindWaitReq:     "Wait",
	KindBarrier:     "Barrier",
	KindBcast:       "Bcast",
	KindReduce:      "Reduce",
	KindAllreduce:   "Allreduce",
	KindGather:      "Gather",
	KindScatter:     "Scatter",
	KindAllgather:   "Allgather",
	KindAlltoall:    "Alltoall",
	KindCommCreate:  "Comm_create",
	KindTypeCreate:  "Type_create",

	KindWinLockAll:    "Win_lock_all",
	KindWinUnlockAll:  "Win_unlock_all",
	KindWinFlush:      "Win_flush",
	KindWinFlushLocal: "Win_flush_local",
	KindGetAccumulate: "Get_accumulate",
	KindFetchOp:       "Fetch_and_op",
	KindCompareSwap:   "Compare_and_swap",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsLocalAccess reports whether k is a program load or store.
func (k Kind) IsLocalAccess() bool { return k == KindLoad || k == KindStore }

// IsRMAComm reports whether k is a one-sided communication call.
func (k Kind) IsRMAComm() bool {
	switch k {
	case KindPut, KindGet, KindAccumulate,
		KindGetAccumulate, KindFetchOp, KindCompareSwap:
		return true
	}
	return false
}

// IsAccFamily reports whether k belongs to MPI's accumulate family, whose
// members are elementwise-atomic with each other when they use the same
// operation and basic datatype.
func (k Kind) IsAccFamily() bool {
	switch k {
	case KindAccumulate, KindGetAccumulate, KindFetchOp, KindCompareSwap:
		return true
	}
	return false
}

// IsRMASync reports whether k is a one-sided synchronization call.
func (k Kind) IsRMASync() bool {
	switch k {
	case KindWinFence, KindWinLock, KindWinUnlock,
		KindWinPost, KindWinStart, KindWinComplete, KindWinWait,
		KindWinLockAll, KindWinUnlockAll, KindWinFlush, KindWinFlushLocal:
		return true
	}
	return false
}

// IsCollective reports whether k is a collective call (these synchronize
// all members of the communicator and are matched by per-communicator
// sequence number).
func (k Kind) IsCollective() bool {
	switch k {
	case KindBarrier, KindBcast, KindReduce, KindAllreduce,
		KindGather, KindScatter, KindAllgather, KindAlltoall,
		KindWinCreate, KindWinFree, KindWinFence, KindCommCreate:
		return true
	}
	return false
}

// IsP2P reports whether k is a point-to-point call.
func (k Kind) IsP2P() bool {
	switch k {
	case KindSend, KindRecv, KindIsend, KindIrecv:
		return true
	}
	return false
}

// IsSync reports whether k can order operations across processes
// (paper §III-A: interprocess synchronization events must be captured
// because they partially order memory accesses).
func (k Kind) IsSync() bool {
	return k.IsCollective() || k.IsP2P() || k.IsRMASync() || k == KindWaitReq
}

// LockType distinguishes MPI_Win_lock modes.
type LockType uint8

const (
	LockNone LockType = iota
	LockShared
	LockExclusive
)

func (l LockType) String() string {
	switch l {
	case LockShared:
		return "shared"
	case LockExclusive:
		return "exclusive"
	default:
		return "none"
	}
}

// AccOp is the reduction operation of an accumulate call. MPI 2.2 permits
// concurrent accumulates to the same location only when they use the same
// operation and basic datatype (paper §II-A).
type AccOp uint8

const (
	OpNone AccOp = iota
	OpSum
	OpProd
	OpMax
	OpMin
	OpReplace // MPI_REPLACE: accumulate degenerates to put
)

var accOpNames = [...]string{"none", "SUM", "PROD", "MAX", "MIN", "REPLACE"}

func (op AccOp) String() string {
	if int(op) < len(accOpNames) {
		return accOpNames[op]
	}
	return fmt.Sprintf("AccOp(%d)", uint8(op))
}

// Event is one logged runtime event. Field use depends on Kind; unused
// fields are zero. Ranks stored in Peer and Target are relative to Comm,
// exactly as passed by the application.
//
// The fields are ordered pointers first, then by falling alignment, so the
// struct has no interior padding and the garbage collector scans only its
// 40-byte pointer prefix. The payloads of the few definition events sit
// behind Def, which is nil on every other event (TestEventLayout pins
// both properties).
type Event struct {
	// Source location of the call or access in the application: File,
	// Func and Line.
	File string
	Func string // routine containing the call site

	// Def holds the payload of a definition event and is nil on every
	// other event; the decoder also leaves it nil when every payload field
	// is zero. Copies of an event share it, so it is never written
	// through: a writer builds a fresh Def. Read it through the nil-safe
	// accessors (TypeID, TypeMap, Members, WinBase, WinSize, DispUnit).
	Def *Def

	Seq int64 // per-rank sequence number, dense from 0

	OriginAddr uint64 // simulated address of origin buffer
	TargetDisp uint64 // displacement into target window, in disp units

	// Result buffer of fetching atomics (Get_accumulate, Fetch_and_op,
	// Compare_and_swap): written with the target's prior value when the
	// operation completes. ResultType and ResultCount describe it.
	ResultAddr uint64

	// Local access fields.
	Addr uint64
	Size uint64

	Rank int32 // world rank of the logging process
	Line int32 // line of the call site in File

	Comm int32 // communicator id (0 = world) for p2p, collectives, comm/win create
	Peer int32 // dest (send), source (recv), root (rooted collectives)
	Tag  int32 // p2p message tag
	Req  int32 // request id for Isend/Irecv and the WaitReq completing them

	// One-sided fields.
	Win         int32 // window id
	Target      int32 // comm-relative target rank (RMA comm, lock/unlock)
	OriginType  int32 // datatype id of origin elements
	OriginCount int32
	TargetType  int32
	TargetCount int32
	Assert      int32 // fence assertion (unused by analysis; logged for fidelity)
	ResultType  int32 // datatype id of the result buffer's elements
	ResultCount int32

	Kind  Kind
	Lock  LockType
	AccOp AccOp
}

// Def is the payload of a definition event: a datatype, communicator or
// window definition, or the group of a Win_post or Win_start.
type Def struct {
	TypeMap  memory.DataMap // KindTypeCreate
	Members  []int32        // KindCommCreate: world ranks of the new comm, in rank order; KindWinPost/KindWinStart: the group
	WinBase  uint64         // KindWinCreate: local window base address
	WinSize  uint64         // KindWinCreate: local window size in bytes
	TypeID   int32          // KindTypeCreate: id assigned to the new datatype
	DispUnit uint32         // KindWinCreate
}

// isZero reports whether every field of d is zero, in which case an event
// carries no Def at all.
func (d *Def) isZero() bool {
	return d.TypeID == 0 && len(d.TypeMap.Segments) == 0 && d.TypeMap.Extent == 0 &&
		len(d.Members) == 0 && d.WinBase == 0 && d.WinSize == 0 && d.DispUnit == 0
}

// noDef stands in for a nil Def: the accessors and the encoder read zero
// fields from it.
var noDef Def

// def returns e's definition payload, or a zero one when it has none.
func (e *Event) def() *Def {
	if e.Def == nil {
		return &noDef
	}
	return e.Def
}

// TypeID returns the id a KindTypeCreate event assigns (0 without a Def).
func (e *Event) TypeID() int32 { return e.def().TypeID }

// TypeMap returns a KindTypeCreate event's data-map (zero without a Def).
func (e *Event) TypeMap() memory.DataMap { return e.def().TypeMap }

// Members returns the world ranks of a KindCommCreate event's communicator,
// or the group of a KindWinPost or KindWinStart event (nil without a Def).
func (e *Event) Members() []int32 { return e.def().Members }

// WinBase returns a KindWinCreate event's local window base address.
func (e *Event) WinBase() uint64 { return e.def().WinBase }

// WinSize returns a KindWinCreate event's local window size in bytes.
func (e *Event) WinSize() uint64 { return e.def().WinSize }

// DispUnit returns a KindWinCreate event's displacement unit.
func (e *Event) DispUnit() uint32 { return e.def().DispUnit }

// Loc returns a compact "file:line" for diagnostics, using only the base
// name of the file.
func (e *Event) Loc() string { return string(e.AppendLoc(nil)) }

// AppendLoc appends Loc's rendering to b: "file:line", or "?" for an event
// without a file.
func (e *Event) AppendLoc(b []byte) []byte {
	if e.File == "" {
		return append(b, '?')
	}
	b = append(b, path.Base(e.File)...)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(e.Line), 10)
}

// ID identifies an event globally as (rank, seq).
type ID struct {
	Rank int32
	Seq  int64
}

// ID returns the event's global identity.
func (e *Event) ID() ID { return ID{Rank: e.Rank, Seq: e.Seq} }

func (e *Event) String() string {
	switch {
	case e.Kind.IsLocalAccess():
		return fmt.Sprintf("P%d/%d %s addr=0x%x size=%d @%s",
			e.Rank, e.Seq, e.Kind, e.Addr, e.Size, e.Loc())
	case e.Kind.IsRMAComm():
		return fmt.Sprintf("P%d/%d %s win=%d target=%d origin=0x%x(%dx t%d) disp=%d(%dx t%d) op=%s @%s",
			e.Rank, e.Seq, e.Kind, e.Win, e.Target,
			e.OriginAddr, e.OriginCount, e.OriginType,
			e.TargetDisp, e.TargetCount, e.TargetType, e.AccOp, e.Loc())
	case e.Kind == KindWinLock:
		return fmt.Sprintf("P%d/%d %s(%s) win=%d target=%d @%s",
			e.Rank, e.Seq, e.Kind, e.Lock, e.Win, e.Target, e.Loc())
	case e.Kind.IsRMASync():
		return fmt.Sprintf("P%d/%d %s win=%d target=%d @%s",
			e.Rank, e.Seq, e.Kind, e.Win, e.Target, e.Loc())
	case e.Kind.IsP2P():
		return fmt.Sprintf("P%d/%d %s comm=%d peer=%d tag=%d @%s",
			e.Rank, e.Seq, e.Kind, e.Comm, e.Peer, e.Tag, e.Loc())
	case e.Kind == KindCommCreate:
		return fmt.Sprintf("P%d/%d %s comm=%d members=%v @%s",
			e.Rank, e.Seq, e.Kind, e.Comm, e.Members(), e.Loc())
	case e.Kind == KindTypeCreate:
		return fmt.Sprintf("P%d/%d %s type=%d map=%s @%s",
			e.Rank, e.Seq, e.Kind, e.TypeID(), e.TypeMap().String(), e.Loc())
	case e.Kind == KindWinCreate:
		return fmt.Sprintf("P%d/%d %s win=%d comm=%d base=0x%x size=%d unit=%d @%s",
			e.Rank, e.Seq, e.Kind, e.Win, e.Comm, e.WinBase(), e.WinSize(), e.DispUnit(), e.Loc())
	default:
		return fmt.Sprintf("P%d/%d %s comm=%d @%s", e.Rank, e.Seq, e.Kind, e.Comm, e.Loc())
	}
}

// Predefined datatype ids; 0 names no type. User-defined datatype ids
// start at TypeUserBase. The data-maps of predefined types are fixed and
// known to both the simulator and the analyzer.
const (
	TypeByte    int32 = 1
	TypeInt32   int32 = 2
	TypeInt64   int32 = 3
	TypeFloat32 int32 = 4
	TypeFloat64 int32 = 5

	TypeUserBase int32 = 100
)

var predefined = map[int32]memory.DataMap{
	TypeByte:    memory.Contig(1),
	TypeInt32:   memory.Contig(4),
	TypeInt64:   memory.Contig(8),
	TypeFloat32: memory.Contig(4),
	TypeFloat64: memory.Contig(8),
}

// PredefinedType returns the data-map of a predefined datatype id.
func PredefinedType(id int32) (memory.DataMap, bool) {
	dm, ok := predefined[id]
	return dm, ok
}

// IsPredefinedType reports whether id names a predefined datatype.
func IsPredefinedType(id int32) bool {
	_, ok := predefined[id]
	return ok
}
