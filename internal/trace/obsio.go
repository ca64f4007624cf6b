package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/obs"
)

// Observability wrappers around the trace codec: byte and event volumes of
// encoding and decoding, the "trace volume" axis of the paper's overhead
// evaluation (§VII-B). WriteDirObs counts what the encoder reports it
// wrote; the readers count what they decode themselves.

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

// WriteDirObs is WriteDir with codec metrics recorded into reg (events and
// bytes encoded per rank file). reg may be nil, which is exactly WriteDir.
func WriteDirObs(dir string, s *Set, reg *obs.Registry) error {
	for r := range s.Traces {
		if err := s.validateLabel(r); err != nil {
			return err
		}
	}
	m := newCodecMetrics(reg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := removeStaleTraceFiles(dir, s); err != nil {
		return err
	}
	for r, t := range s.Traces {
		n, err := writeRankFile(filepath.Join(dir, FileName(t.Rank)), t)
		if err != nil {
			cutRankFiles(dir, s.Traces[r+1:])
			return err
		}
		if m != nil {
			m.encodedEvents.Add(int64(len(t.Events)))
			m.encodedBytes.Add(n)
		}
	}
	return nil
}

// writeRankFile writes t's stream to the rank file at path and returns
// the bytes written.
func writeRankFile(path string, t *Trace) (int64, error) {
	f, err := openRankFile(path)
	if err != nil {
		return 0, err
	}
	n, err := encodeTrace(f, t)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// cutRankFiles cuts the existing rank file of each of traces to one byte,
// as openRankFile does, after the write of an earlier rank failed. Left
// alone, these files would hold an earlier run's complete traces beside
// the new run's, and a salvage read would take the mix for one run; cut,
// each reads as lost entirely, under its own name. The cut is best
// effort: the caller returns the write's own error.
func cutRankFiles(dir string, traces []*Trace) {
	for _, t := range traces {
		f, err := os.OpenFile(filepath.Join(dir, FileName(t.Rank)), os.O_WRONLY, 0)
		if err != nil {
			continue // no file to cut
		}
		_ = f.Truncate(1)
		_ = f.Close()
	}
}

// openRankFile opens the rank file at path for writing from offset 0,
// creating it if needed, and cuts it to one byte.
//
// The cut is to one byte because on ext4 closing a file that was
// truncated to zero, as O_TRUNC does, starts its writeback at once
// (auto_da_alloc), which made a rewrite several times dearer
// (EXPERIMENTS.md, "Rewriting a rank file"). The byte an old trace file
// keeps is the M that every stream starts with, and the encoder's first
// write covers it; a stream is at least 8 bytes long, so the file ends
// where the new stream ends. At every moment the file holds a prefix of
// the new stream, so a writer that stops part way leaves what O_TRUNC
// left, never new records in front of old bytes.
//
// A destination that is not a regular file, such as a rank name linked to
// /dev/null, cannot be cut (EINVAL) and is written as it is. Nothing is
// synced: a trace directory is not made durable.
func openRankFile(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(1); err != nil && !errors.Is(err, syscall.EINVAL) {
		f.Close()
		return nil, err
	}
	return f, nil
}

// removeStaleTraceFiles removes each regular file in dir that ReadDir
// would read as a trace file, unless writing s overwrites it: the higher
// ranks of an earlier, wider run, or a name such as trace.01.bin that
// sorts before trace.1.bin and would shadow it. Without it, ReadDir mixes
// the two runs. It lists dir once and stats no file.
func removeStaleTraceFiles(dir string, s *Set) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	regular := entries[:0]
	for _, e := range entries {
		if e.Type().IsRegular() {
			regular = append(regular, e)
		}
	}
	for _, nr := range traceFileNames(regular) {
		if nr.rank < len(s.Traces) && nr.name == FileName(int32(nr.rank)) {
			continue // overwritten below
		}
		if err := os.Remove(filepath.Join(dir, nr.name)); err != nil {
			return err
		}
	}
	return nil
}

// ReadDirWith is ReadDir under sc: the ReadDirSalvage read, failing with
// an error that names the first note when the directory was not read
// losslessly. The zero Scope is exactly ReadDir.
func ReadDirWith(dir string, sc obs.Scope) (*Set, error) {
	set, notes, err := ReadDirSalvage(dir, sc)
	if err != nil {
		return nil, err
	}
	if len(notes) > 0 {
		return nil, fmt.Errorf("trace: %s", notes[0])
	}
	return set, nil
}
