// Package obs is the observability layer of the MC-Checker reproduction:
// counters, gauges, log-scale histograms, and lightweight phase spans,
// registered in a Registry and exposed as a stable Snapshot (text,
// Prometheus exposition, or JSON).
//
// The paper's evaluation (§VII) is entirely about measured behaviour —
// per-phase analysis time, profiling overhead with and without ST-Analyzer
// selection, trace volume — and this package is what makes those numbers
// observable outside ad-hoc benchmarks.
//
// Two properties keep the instrumentation from perturbing what it
// measures:
//
//   - Every metric type is nil-safe: a nil *Registry hands out nil metric
//     handles, and every mutating method on a nil handle is a no-op. The
//     disabled path is a single pointer check with no allocation, so hot
//     paths (the profiler's emit, the simulator's per-call accounting) can
//     be instrumented unconditionally.
//   - Hot counters touched concurrently by rank goroutines are sharded
//     across cache-line-padded slots (RankCounter), the same false-sharing
//     discipline as the profiler's per-rank sequence counters.
//
// The package depends only on the standard library and its stdlib-only
// tracing subpackage, so that every layer of the pipeline — simulator,
// profiler, trace codec, offline analyzer, streaming checker — can import
// it without cycles. Scope bundles a context, a Registry and a tracing
// Recorder into the one configuration value the offline stages share.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// meta is the identity of one metric: its family name and its rendered
// label pairs (`k="v",k2="v2"`, empty for an unlabeled metric).
type meta struct {
	name   string
	labels string
}

// renderLabels turns alternating key/value pairs into a deterministic
// Prometheus-style label body. Keys are sorted so that the same logical
// metric always maps to the same registry entry.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd number of label key/value arguments")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	s := ""
	for i, p := range pairs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", p.k, p.v)
	}
	return s
}

func (m meta) key() string { return m.name + "{" + m.labels + "}" }

// Counter is a monotonically increasing value updated with atomic adds.
// Use RankCounter instead when many rank goroutines hit it concurrently.
type Counter struct {
	meta
	v atomic.Int64
}

// Add increases the counter. A nil receiver is a no-op.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one. A nil receiver is a no-op.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// rankShards is the number of cache-line-padded slots of a RankCounter.
// Ranks map to slots modulo rankShards, so worlds up to 64 ranks see zero
// inter-rank contention and larger worlds see only bounded sharing.
const rankShards = 64

type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// RankCounter is a counter sharded by rank across cache-line-padded slots,
// for hot paths touched concurrently by every rank goroutine.
type RankCounter struct {
	meta
	shards [rankShards]paddedInt64
}

// Inc increases the shard of rank by one. A nil receiver is a no-op.
func (c *RankCounter) Inc(rank int32) {
	if c == nil {
		return
	}
	c.shards[uint32(rank)%rankShards].v.Add(1)
}

// Add increases the shard of rank by n. A nil receiver is a no-op.
func (c *RankCounter) Add(rank int32, n int64) {
	if c == nil {
		return
	}
	c.shards[uint32(rank)%rankShards].v.Add(n)
}

// Value returns the sum across shards (0 on a nil receiver).
func (c *RankCounter) Value() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is a value that can move both ways (or track a maximum).
type Gauge struct {
	meta
	v atomic.Int64
}

// Set stores v. A nil receiver is a no-op.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n. A nil receiver is a no-op.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// SetMax raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of histogram buckets: upper bounds 1, 2, 4, …,
// 2^(histBuckets-2), and a final +Inf bucket. Values are non-negative
// integers (event counts, byte counts, nanoseconds).
const histBuckets = 28

// BucketUpper returns the inclusive upper bound of bucket i, or -1 for the
// final +Inf bucket.
func BucketUpper(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return 1 << uint(i)
}

// bucketIndex maps a value to the smallest bucket whose upper bound holds
// it: v ≤ 2^i.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1))
	if i >= histBuckets-1 {
		return histBuckets - 1
	}
	return i
}

// Histogram is a fixed log2-bucketed distribution (counts per power-of-two
// upper bound, plus total count and sum).
type Histogram struct {
	meta
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. A nil receiver is a no-op.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// SpanStats accumulates the wall time of a named phase: how often it ran,
// total and maximum duration.
type SpanStats struct {
	meta
	count   atomic.Int64
	totalNs atomic.Int64
	maxNs   atomic.Int64
}

// Span is one in-flight timed section; End records it.
type Span struct {
	s     *SpanStats
	start time.Time
}

// Start opens a timed section. On a nil receiver the returned Span is
// inert (End is a no-op and the clock is never read).
func (s *SpanStats) Start() Span {
	if s == nil {
		return Span{}
	}
	return Span{s: s, start: time.Now()}
}

// End closes the section and folds its duration into the stats.
func (sp Span) End() {
	if sp.s == nil {
		return
	}
	d := time.Since(sp.start).Nanoseconds()
	sp.s.count.Add(1)
	sp.s.totalNs.Add(d)
	sp.s.maxNs.Store(maxInt64(sp.s.maxNs.Load(), d))
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Count returns how many times the span completed (0 on a nil receiver).
func (s *SpanStats) Count() int64 {
	if s == nil {
		return 0
	}
	return s.count.Load()
}

// Total returns the accumulated duration (0 on a nil receiver).
func (s *SpanStats) Total() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.totalNs.Load())
}

// Registry holds the metrics of one run. The zero value is not usable; a
// nil *Registry is the disabled configuration: every lookup returns a nil
// handle whose methods are no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	rankCtrs   map[string]*RankCounter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	spans      map[string]*SpanStats
	collectors []func() []GaugeValue

	// famKind records each family name's exposition kind ("counter",
	// "gauge", "histogram", "summary") and instKind each full (name,
	// labels) key's Go instrument type. Both exist to fail loudly on
	// collisions that the per-type maps would otherwise silently merge
	// or, worse, double-render: one name exposed under two TYPEs, or the
	// same sample emitted by both a Counter and a RankCounter.
	famKind  map[string]string
	instKind map[string]string
}

// NewRegistry returns an empty registry, safe for concurrent use.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		rankCtrs: map[string]*RankCounter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		spans:    map[string]*SpanStats{},
		famKind:  map[string]string{},
		instKind: map[string]string{},
	}
}

// checkKindsLocked validates one registration against the collision
// rules and records it. Caller holds mu.
func (r *Registry) checkKindsLocked(m meta, instrument, exposition string) {
	if prev, ok := r.famKind[m.name]; ok && prev != exposition {
		panic(fmt.Sprintf("obs: metric family %q registered as both %s and %s",
			m.name, prev, exposition))
	}
	r.famKind[m.name] = exposition
	if prev, ok := r.instKind[m.key()]; ok && prev != instrument {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s",
			m.key(), prev, instrument))
	}
	r.instKind[m.key()] = instrument
}

// Counter returns (registering on first use) the counter with the given
// name and label key/value pairs. Nil registry returns nil.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	m := meta{name: name, labels: renderLabels(kv)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[m.key()]; ok {
		return c
	}
	r.checkKindsLocked(m, "Counter", "counter")
	c := &Counter{meta: m}
	r.counters[m.key()] = c
	return c
}

// RankCounter returns (registering on first use) the sharded counter with
// the given name and labels. Nil registry returns nil.
func (r *Registry) RankCounter(name string, kv ...string) *RankCounter {
	if r == nil {
		return nil
	}
	m := meta{name: name, labels: renderLabels(kv)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.rankCtrs[m.key()]; ok {
		return c
	}
	r.checkKindsLocked(m, "RankCounter", "counter")
	c := &RankCounter{meta: m}
	r.rankCtrs[m.key()] = c
	return c
}

// Gauge returns (registering on first use) the gauge with the given name
// and labels. Nil registry returns nil.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	m := meta{name: name, labels: renderLabels(kv)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[m.key()]; ok {
		return g
	}
	r.checkKindsLocked(m, "Gauge", "gauge")
	g := &Gauge{meta: m}
	r.gauges[m.key()] = g
	return g
}

// Histogram returns (registering on first use) the histogram with the
// given name and labels. Nil registry returns nil.
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	m := meta{name: name, labels: renderLabels(kv)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[m.key()]; ok {
		return h
	}
	r.checkKindsLocked(m, "Histogram", "histogram")
	h := &Histogram{meta: m}
	r.hists[m.key()] = h
	return h
}

// Span returns (registering on first use) the span stats with the given
// name and labels. Nil registry returns nil.
func (r *Registry) Span(name string, kv ...string) *SpanStats {
	if r == nil {
		return nil
	}
	m := meta{name: name, labels: renderLabels(kv)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.spans[m.key()]; ok {
		return s
	}
	r.checkKindsLocked(m, "SpanStats", "summary")
	s := &SpanStats{meta: m}
	r.spans[m.key()] = s
	return s
}

// StartSpan opens a timed section in one call: StartSpan(...).End() brackets
// a phase. On a nil registry the returned Span is inert.
func (r *Registry) StartSpan(name string, kv ...string) Span {
	return r.Span(name, kv...).Start()
}

// AddCollector registers a function contributing computed gauge values at
// snapshot time (for state owned by a component, e.g. the profiler's exact
// per-rank event counts). A nil registry ignores the collector.
func (r *Registry) AddCollector(f func() []GaugeValue) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}
