package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
)

// Salvage-mode decoding: recover the longest valid event prefix from a
// truncated or corrupted rank stream instead of failing outright, so that
// a crashed writer or a half-copied trace directory still yields a
// (partial) report. Every reader is a salvage read: a strict read is the
// same read, failing when salvage had anything to say.

// SalvageResult describes what ReadTraceSalvage recovered and why it
// stopped.
type SalvageResult struct {
	// Complete is true when the stream ended with a clean end record —
	// nothing was lost and the result equals strict ReadTrace.
	Complete bool
	// Events is the number of events recovered.
	Events int
	// Reason is the decode error that ended recovery ("" when Complete).
	Reason string
}

// ReadTraceSalvage decodes one rank stream, recovering the longest valid
// event prefix. It returns an error only when the stream header itself is
// unreadable (no rank can be attributed); any later decode error ends
// recovery and is reported in the SalvageResult instead. The returned
// trace always has dense sequence numbers and valid event kinds.
func ReadTraceSalvage(data []byte) (*Trace, SalvageResult, error) {
	d, _ := getDecoder()
	defer d.release()
	t, res, err := d.decode(data)
	if t == nil {
		return nil, res, err
	}
	return t, res, nil
}

// recordSalvage adds one lossy read's totals to the salvage counters:
// the events kept and the streams cut short.
func recordSalvage(reg *obs.Registry, events, truncated int64) {
	reg.Counter("mcchecker_trace_salvaged_events_total").Add(events)
	reg.Counter("mcchecker_trace_truncated_streams_total").Add(truncated)
}

// ReadDirSalvage loads a trace directory in salvage mode: every readable
// prefix is recovered, unreadable or missing ranks become empty traces,
// and each degradation is described by one diagnostic note. The returned
// notes are empty exactly when the directory was read losslessly. It
// fails only when the directory holds no usable trace file.
//
// Rank files are read one at a time, in name order, into one reused
// buffer. sc.Ctx is checked before each file, so a serving watchdog can
// abandon the read of a large or slow directory. sc.Obs receives the
// codec and pipeline decode metrics, plus the salvage counters when the
// read lost anything. sc.Trace records each file as a span on the
// "decode" track, annotated with its bytes and recovered events and, when
// it degraded, the reason.
func ReadDirSalvage(dir string, sc obs.Scope) (*Set, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	names := traceFileNames(entries)
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("trace: no trace files in %s", dir)
	}
	rs := newReadSet(sc, len(names))
	defer rs.d.release()
	for _, nr := range names {
		path := filepath.Join(dir, nr.name)
		if err := rs.add(nr.name, nr.rank, func() ([]byte, error) { return rs.d.readFile(path) }); err != nil {
			return nil, nil, err
		}
	}
	return rs.finish("trace files in " + dir)
}

// Stream is one rank's encoded trace held in memory, such as an upload to
// the daemon.
type Stream struct {
	Name string // labels the stream's notes, e.g. "rank 3 upload"
	Rank int    // the rank the stream was declared for
	Data []byte
}

// ReadStreams is ReadDirSalvage over in-memory rank streams, read in the
// order given under the same salvage policy and with the same notes.
func ReadStreams(streams []Stream, sc obs.Scope) (*Set, []string, error) {
	rs := newReadSet(sc, len(streams))
	defer rs.d.release()
	for _, s := range streams {
		if s.Rank < 0 {
			return nil, nil, fmt.Errorf("trace: %s: negative rank %d", s.Name, s.Rank)
		}
		if err := rs.add(s.Name, s.Rank, func() ([]byte, error) { return s.Data, nil }); err != nil {
			return nil, nil, err
		}
	}
	return rs.finish("rank streams")
}

// readSet folds rank streams into a set under the one salvage policy
// every trace source shares. Streams arrive one at a time and decode on
// one pooled context; each either fills its rank or becomes a note.
type readSet struct {
	sc     obs.Scope
	d      *decoder
	hit    bool // d came from the pool
	start  time.Time
	codec  *codecMetrics
	traces []*Trace // accepted streams by rank; nil where none was
	ranks  int      // one past the highest rank any stream declared
	notes  []string
	// salvage totals over accepted streams, recorded if the read is lossy
	events    int64
	truncated int64
}

// newReadSet starts a read of n streams.
func newReadSet(sc obs.Scope, n int) *readSet {
	d, hit := getDecoder()
	return &readSet{sc: sc, d: d, hit: hit, start: time.Now(), codec: newCodecMetrics(sc.Obs),
		traces: make([]*Trace, 0, n)}
}

// add reads and decodes one stream declared for rank and folds it in:
// unreadable, lost entirely, claiming another rank, a duplicate, or a
// (possibly truncated) prefix. It fails only when sc is canceled.
func (rs *readSet) add(name string, rank int, read func() ([]byte, error)) error {
	if err := rs.sc.Err(); err != nil {
		return fmt.Errorf("trace: read canceled: %w", err)
	}
	var sp *tracing.Span
	if tr := rs.sc.Trace; tr != nil {
		scope := fmt.Sprintf("rank %d", rank)
		sp = tr.Start("decode", tr.Lane("main", scope), scope)
		defer sp.End()
	}
	rs.ranks = max(rs.ranks, rank+1)
	data, err := read()
	if err != nil {
		rs.notes = append(rs.notes, fmt.Sprintf("%s: unreadable: %v", name, err))
		sp.Annotate("outcome", "unreadable")
		return nil
	}
	t, res, err := rs.d.decode(data)
	if rs.codec != nil {
		rs.codec.decodedBytes.Add(int64(len(data)))
		rs.codec.decodedEvents.Add(int64(res.Events))
	}
	if sp != nil {
		sp.Annotate("bytes", strconv.Itoa(len(data)))
		sp.Annotate("events", strconv.Itoa(res.Events))
	}
	switch {
	case t == nil:
		rs.notes = append(rs.notes, fmt.Sprintf("%s: lost entirely: %v", name, err))
		sp.Annotate("outcome", "lost")
		return nil
	case int(t.Rank) != rank:
		rs.notes = append(rs.notes, fmt.Sprintf("%s: header claims rank %d; ignored", name, t.Rank))
		return nil
	case rank < len(rs.traces) && rs.traces[rank] != nil:
		rs.notes = append(rs.notes, fmt.Sprintf("%s: duplicate of rank %d; ignored", name, rank))
		return nil
	}
	if !res.Complete {
		rs.notes = append(rs.notes, fmt.Sprintf("%s: truncated, salvaged %d-event prefix (%s)",
			name, res.Events, res.Reason))
		sp.Annotate("reason", res.Reason)
		rs.truncated++
	}
	rs.events += int64(res.Events)
	if rank >= len(rs.traces) {
		rs.traces = append(rs.traces, make([]*Trace, rank+1-len(rs.traces))...)
	}
	rs.traces[rank] = t
	return nil
}

// finish assembles the set: every declared rank without an accepted
// stream becomes an empty trace with a note. what names the source for
// the error returned when no stream was usable.
func (rs *readSet) finish(what string) (*Set, []string, error) {
	if len(rs.traces) == 0 {
		return nil, rs.notes, fmt.Errorf("trace: no salvageable %s", what)
	}
	set := &Set{Traces: append(rs.traces, make([]*Trace, rs.ranks-len(rs.traces))...)}
	for r, t := range set.Traces {
		if t == nil {
			set.Traces[r] = &Trace{Rank: int32(r)}
			rs.notes = append(rs.notes, fmt.Sprintf("rank %d: no events recovered", r))
		}
	}
	if err := set.Validate(); err != nil {
		return nil, rs.notes, fmt.Errorf("trace: salvaged set invalid: %w", err)
	}
	if reg := rs.sc.Obs; reg != nil {
		if len(rs.notes) > 0 {
			recordSalvage(reg, rs.events, rs.truncated)
		}
		var hit int64
		if rs.hit {
			hit = 1
		}
		reg.Counter("mcchecker_pipeline_decode_pool_hits_total").Add(hit)
		reg.Counter("mcchecker_pipeline_decode_pool_misses_total").Add(1 - hit)
		if secs := time.Since(rs.start).Seconds(); secs > 0 {
			reg.Gauge("mcchecker_pipeline_decode_events_per_sec").Set(int64(float64(set.TotalEvents()) / secs))
		}
	}
	return set, rs.notes, nil
}

// ApplyTruncFaults applies a plan's trace-truncation faults to an
// in-memory set: each affected rank's trace is encoded, cut to the
// planned byte fraction, and salvage-decoded back, exactly as if the
// on-disk file had been truncated. It returns the degraded set and one
// note per truncated rank; a plan without truncation faults returns the
// set unchanged.
func ApplyTruncFaults(s *Set, plan *faults.Plan, reg *obs.Registry) (*Set, []string, error) {
	if plan == nil || len(plan.Truncs) == 0 {
		return s, nil, nil
	}
	var notes []string
	var events, truncated int64
	out := &Set{Traces: make([]*Trace, len(s.Traces))}
	for i, t := range s.Traces {
		frac, ok := plan.TruncFor(int(t.Rank))
		if !ok || frac >= 1 {
			out.Traces[i] = t
			continue
		}
		data, err := EncodeTrace(t)
		if err != nil {
			return nil, notes, fmt.Errorf("trace: encoding rank %d for truncation fault: %w", t.Rank, err)
		}
		cut := faults.TruncateBytes(data, frac)
		nt, res, err := ReadTraceSalvage(cut)
		if err != nil {
			// Even the header was cut away: the rank contributes nothing.
			nt = &Trace{Rank: t.Rank}
		}
		events += int64(res.Events)
		if !res.Complete {
			truncated++
		}
		notes = append(notes, fmt.Sprintf(
			"rank %d: trace truncated to %d of %d bytes, salvaged %d of %d events",
			t.Rank, len(cut), len(data), len(nt.Events), len(t.Events)))
		out.Traces[i] = nt
	}
	recordSalvage(reg, events, truncated)
	if err := out.Validate(); err != nil {
		return nil, notes, fmt.Errorf("trace: truncated set invalid: %w", err)
	}
	return out, notes, nil
}
