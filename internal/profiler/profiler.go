// Package profiler implements MC-Checker's online component (paper §IV-B):
// it interposes on MPI calls and on the loads/stores of statically selected
// variables, logging runtime events to a trace sink.
//
// In the paper the Profiler is an LLVM pass instrumenting the binary; here
// it implements mpi.Hook. The selective-instrumentation decision made by
// ST-Analyzer (paper §IV-A) arrives as a relevance predicate over buffer
// names: the profiler attaches load/store observers only to buffers the
// predicate accepts. Passing a nil predicate observes every tracked buffer
// — the "no static analysis" configuration whose overhead the paper
// contrasts with the selective one (§VII-B).
//
// The original instruments at compile time, so each event's source site
// is static knowledge. Here memory.CallerLoc finds the site at run time:
// it follows the saved frame pointers above it to the return addresses of
// the frames up to the site, and looks those up in a cache of resolved
// file, line and function, filled on the chain's first call. A chain the
// addresses do not determine, because runtime.Callers elides a wrapper
// frame on it, is never cached and takes runtime.Callers on every call,
// as does every build off amd64; so each site is the one the runtime
// reports. Sequence numbers are per-rank counters touched only by the
// rank's own goroutine. A warm site allocates nothing, and an observed
// access costs about four times the access itself
// (BenchmarkProfilerEmitCost).
package profiler

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Relevance decides which buffers' loads and stores are instrumented.
// It is the runtime form of the ST-Analyzer report.
type Relevance func(bufferName string) bool

// FromNames builds a Relevance from an explicit set of variable names, the
// shape of the report ST-Analyzer produces. An empty or nil list yields a
// predicate that accepts nothing; pass a nil Relevance for full
// instrumentation.
func FromNames(names []string) Relevance {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return func(name string) bool { return set[name] }
}

// MaxRanks bounds the number of ranks one Profiler can serve.
const MaxRanks = 4096

// Profiler collects runtime events from a simulated MPI world. One Profiler
// serves all ranks of one run. Each rank's events are emitted from that
// rank's own goroutine; the sink must be safe for concurrent use.
type Profiler struct {
	sink     trace.Sink
	relevant Relevance // nil = instrument everything

	// seq indexes each emitting rank's sequence counter by rank, nil for
	// ranks that have not emitted. The table is published through an
	// atomic pointer and replaced, under seqMu, when a rank emits for the
	// first time; the counters themselves never move. Only rank r's
	// goroutine touches counter r, so counting needs no synchronization.
	// Each counter is allocated alone and padded to a cache line to avoid
	// false sharing between rank goroutines.
	seq   atomic.Pointer[[]*paddedCounter]
	seqMu sync.Mutex

	// Observability handles (all nil when no registry is attached, making
	// the disabled path one nil check per event with no allocation).
	// events is indexed by trace.Kind; the counters are rank-sharded so the
	// instrumentation does not serialize the rank goroutines it measures.
	events  [trace.KindCount]*obs.RankCounter
	relHit  *obs.Counter
	relMiss *obs.Counter
}

type paddedCounter struct {
	v int64
	_ [56]byte
}

var _ mpi.Hook = (*Profiler)(nil)

// New returns a profiler writing to sink. relevant may be nil to
// instrument all buffers (full instrumentation, no static analysis).
func New(sink trace.Sink, relevant Relevance) *Profiler {
	return NewObs(sink, relevant, nil)
}

// NewObs is New with an observability registry attached: the profiler
// records events emitted per kind, exact per-rank event counts, and
// relevance-filter hits and misses (ST-Analyzer's selectivity, the lever
// behind the paper's Figure 8 overhead comparison). reg may be nil, which
// is exactly New.
func NewObs(sink trace.Sink, relevant Relevance, reg *obs.Registry) *Profiler {
	pr := &Profiler{sink: sink, relevant: relevant}
	if reg == nil {
		return pr
	}
	for k := 1; k < trace.KindCount; k++ {
		pr.events[k] = reg.RankCounter("mcchecker_profiler_events_total", "kind", trace.Kind(k).String())
	}
	pr.relHit = reg.Counter("mcchecker_profiler_relevance_total", "result", "hit")
	pr.relMiss = reg.Counter("mcchecker_profiler_relevance_total", "result", "miss")
	reg.AddCollector(pr.rankEventCounts)
	return pr
}

// rankEventCounts exposes the exact events-per-rank tallies (the per-rank
// sequence counters) as gauges at snapshot time, at zero hot-path cost.
// The sequence counters are rank-local and unsynchronized, so a snapshot
// taken while ranks are still running may read mid-update values; take
// snapshots after mpi.Run returns for exact counts.
func (pr *Profiler) rankEventCounts() []obs.GaugeValue {
	var out []obs.GaugeValue
	for r, c := range pr.counters() {
		if c == nil {
			continue
		}
		if n := c.v; n > 0 {
			out = append(out, obs.GaugeValue{
				Name:   "mcchecker_profiler_rank_events",
				Labels: `rank="` + strconv.Itoa(r) + `"`,
				Value:  n,
			})
		}
	}
	return out
}

// counters returns the current counter table.
func (pr *Profiler) counters() []*paddedCounter {
	if t := pr.seq.Load(); t != nil {
		return *t
	}
	return nil
}

// counter returns rank's sequence counter, adding it on the rank's first
// event.
func (pr *Profiler) counter(rank int32) *int64 {
	if rank < 0 || rank >= MaxRanks {
		panic(fmt.Sprintf("profiler: rank %d exceeds MaxRanks %d", rank, MaxRanks))
	}
	if t := pr.counters(); int(rank) < len(t) && t[rank] != nil {
		return &t[rank].v
	}
	return pr.addCounter(rank)
}

// addCounter publishes a copy of the table that holds a new counter for
// rank.
func (pr *Profiler) addCounter(rank int32) *int64 {
	pr.seqMu.Lock()
	defer pr.seqMu.Unlock()
	old := pr.counters()
	if int(rank) < len(old) && old[rank] != nil {
		return &old[rank].v // added while this call waited for the lock
	}
	t := make([]*paddedCounter, max(len(old), int(rank)+1))
	copy(t, old)
	t[rank] = new(paddedCounter)
	pr.seq.Store(&t)
	return &t[rank].v
}

// MPICall implements mpi.Hook: every MPI call event is logged.
func (pr *Profiler) MPICall(p *mpi.Proc, ev trace.Event) {
	c := pr.counter(ev.Rank)
	ev.Seq = *c
	*c++
	pr.events[ev.Kind].Inc(ev.Rank)
	pr.sink.Emit(ev)
}

// BufferAllocated implements mpi.Hook: buffers selected by the relevance
// predicate get a load/store observer that logs access events interleaved
// (by sequence number) with the rank's MPI call events.
func (pr *Profiler) BufferAllocated(p *mpi.Proc, b *memory.Buffer) {
	if pr.relevant != nil && !pr.relevant(b.Name()) {
		pr.relMiss.Inc()
		return
	}
	pr.relHit.Inc()
	rank := int32(p.Rank())
	c := pr.counter(rank)
	sink := pr.sink
	loadCtr, storeCtr := pr.events[trace.KindLoad], pr.events[trace.KindStore]
	b.SetObserver(memory.ObserverFunc(func(_ *memory.Buffer, a memory.Access) {
		kind := trace.KindLoad
		ctr := loadCtr
		if a.Kind == memory.Store {
			kind = trace.KindStore
			ctr = storeCtr
		}
		ctr.Inc(rank)
		ev := trace.Event{
			Kind: kind,
			Rank: rank,
			Seq:  *c,
			Addr: a.Addr,
			Size: a.Size,
			File: a.File,
			Line: int32(a.Line),
			Func: a.Func,
		}
		*c++
		sink.Emit(ev)
	}))
}
