package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/par"
)

// Observability wrappers around the trace codec: byte and event volumes of
// encoding and decoding, the "trace volume" axis of the paper's overhead
// evaluation (§VII-B). The codec itself stays untouched; the counting
// happens in thin io wrappers at the file boundary.

// codecMetrics resolves the codec's counters from a registry; a nil
// receiver (nil registry) makes every record call a no-op.
type codecMetrics struct {
	encodedEvents *obs.Counter
	encodedBytes  *obs.Counter
	decodedEvents *obs.Counter
	decodedBytes  *obs.Counter
}

func newCodecMetrics(reg *obs.Registry) *codecMetrics {
	if reg == nil {
		return nil
	}
	return &codecMetrics{
		encodedEvents: reg.Counter("mcchecker_trace_encoded_events_total"),
		encodedBytes:  reg.Counter("mcchecker_trace_encoded_bytes_total"),
		decodedEvents: reg.Counter("mcchecker_trace_decoded_events_total"),
		decodedBytes:  reg.Counter("mcchecker_trace_decoded_bytes_total"),
	}
}

// countingWriter tallies bytes flowing to the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// countingReader tallies bytes consumed from the underlying reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// WriteDirObs is WriteDir with codec metrics recorded into reg (events and
// bytes encoded per rank file). reg may be nil, which is exactly WriteDir.
func WriteDirObs(dir string, s *Set, reg *obs.Registry) error {
	m := newCodecMetrics(reg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range s.Traces {
		if err := writeFileObs(filepath.Join(dir, FileName(t.Rank)), t, m); err != nil {
			return err
		}
	}
	return nil
}

func writeFileObs(path string, t *Trace, m *codecMetrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var out io.Writer = f
	var cw *countingWriter
	if m != nil {
		cw = &countingWriter{w: f}
		out = cw
	}
	w, err := NewWriterHint(out, t.Rank, len(t.Events))
	if err != nil {
		f.Close()
		return err
	}
	for i := range t.Events {
		w.Emit(t.Events[i])
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	if m != nil {
		m.encodedEvents.Add(int64(len(t.Events)))
		m.encodedBytes.Add(cw.n)
	}
	return f.Close()
}

// ReadDirWith is ReadDir under sc. sc.Ctx is checked before each rank
// file decodes, so a serving watchdog can abandon the read of a large or
// slow trace directory without killing the process. sc.Obs receives the
// codec metrics (events and bytes decoded per rank file) and the pipeline
// front-end gauges: decode throughput, decode-pool hit/miss deltas, and
// the worker count used for the concurrent per-file decode. sc.Trace
// records each rank file's decode as a span on the "decode" track (one
// lane per worker, or per rank in deterministic mode). The zero Scope is
// exactly ReadDir.
func ReadDirWith(dir string, sc obs.Scope) (*Set, error) {
	m := newCodecMetrics(sc.Obs)
	workers := decodeWorkers()
	if m == nil && sc.Trace == nil {
		return readDirWith(dir, workers, sc, func(f *os.File, _ *tracing.Span) (*Trace, error) { return ReadTrace(f) })
	}
	hits0, misses0 := DecodePoolStats()
	start := time.Now()
	set, err := readDirWith(dir, workers, sc, func(f *os.File, sp *tracing.Span) (*Trace, error) {
		cr := &countingReader{r: f}
		t, err := ReadTrace(cr)
		if err != nil {
			return nil, err
		}
		if m != nil {
			m.decodedEvents.Add(int64(len(t.Events)))
			m.decodedBytes.Add(cr.n)
		}
		sp.Annotate("events", strconv.Itoa(len(t.Events)))
		sp.Annotate("bytes", strconv.FormatInt(cr.n, 10))
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	reg := sc.Obs
	if reg == nil {
		return set, nil
	}
	elapsed := time.Since(start)
	hits1, misses1 := DecodePoolStats()
	reg.Gauge("mcchecker_pipeline_decode_workers").Set(int64(workers))
	reg.Counter("mcchecker_pipeline_decode_pool_hits_total").Add(hits1 - hits0)
	reg.Counter("mcchecker_pipeline_decode_pool_misses_total").Add(misses1 - misses0)
	if secs := elapsed.Seconds(); secs > 0 {
		reg.Gauge("mcchecker_pipeline_decode_events_per_sec").Set(int64(float64(set.TotalEvents()) / secs))
	}
	return set, nil
}

// decodeWorkers is the concurrency used for per-file trace decoding:
// ranks are independent streams, so the front end fans them out across
// the machine.
func decodeWorkers() int { return runtime.GOMAXPROCS(0) }

// readDirWith is the directory-scanning body of ReadDirWith with the
// per-file decode step parameterized. Rank files decode concurrently on
// up to `workers` goroutines; assembly stays deterministic because each
// file's trace lands in its name's slot and errors surface in name order
// (par.Ranks picks the lowest failing index). sc.Ctx is checked before
// each file decodes, and sc.Trace receives one span per file.
func readDirWith(dir string, workers int, sc obs.Scope, readOne func(f *os.File, sp *tracing.Span) (*Trace, error)) (*Set, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := traceFileNames(entries)
	if len(names) == 0 {
		return nil, fmt.Errorf("trace: no trace files in %s", dir)
	}
	parts := make([]*Trace, len(names))
	scope := func(i int) string { return fmt.Sprintf("rank %d", names[i].rank) }
	err = par.RanksTraced(len(names), workers, sc.Trace, "decode", scope, func(i int, sp *tracing.Span) error {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("trace: read canceled: %w", err)
		}
		nr := names[i]
		f, err := os.Open(filepath.Join(dir, nr.name))
		if err != nil {
			return err
		}
		t, err := readOne(f, sp)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", nr.name, err)
		}
		if int(t.Rank) != nr.rank {
			return fmt.Errorf("%s contains rank %d", nr.name, t.Rank)
		}
		parts[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Merge(parts...)
}
