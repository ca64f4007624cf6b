package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Trace files are named trace.<rank>.bin inside a trace directory, one per
// rank, mirroring the paper's per-process local trace files.

// FileName returns the trace file name for a rank.
func FileName(rank int32) string { return fmt.Sprintf("trace.%d.bin", rank) }

// WriteDir writes each rank's trace into dir (created if needed).
func WriteDir(dir string, s *Set) error {
	return WriteDirObs(dir, s, nil)
}

// ReadDir loads all trace.<rank>.bin files from dir into a Set. All ranks
// [0, n) must be present and decode whole; the error otherwise names the
// first loss, as a ReadDirSalvage note.
func ReadDir(dir string) (*Set, error) {
	return ReadDirWith(dir, obs.Scope{})
}

// nameRank pairs a trace file name with the rank its name claims.
type nameRank struct {
	name string
	rank int
}

// traceFileNames filters and sorts the trace.<rank>.bin entries of a
// directory listing.
func traceFileNames(entries []os.DirEntry) []nameRank {
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "trace.") || !strings.HasSuffix(name, ".bin") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var out []nameRank
	for _, name := range names {
		rankStr := strings.TrimSuffix(strings.TrimPrefix(name, "trace."), ".bin")
		rank, err := strconv.ParseInt(rankStr, 10, 32)
		if err != nil || rank < 0 {
			continue // not a trace file
		}
		out = append(out, nameRank{name: name, rank: int(rank)})
	}
	return out
}

// FileSink is a Sink that writes each rank's events directly to its trace
// file as they are emitted — the paper's Profiler "logs the runtime events
// into the local disk independently for each process" (§VII-B). Each rank
// has its own writer and lock, so ranks do not contend on the hot path;
// the sink-level lock guards only writer creation.
type FileSink struct {
	dir     string
	mu      sync.RWMutex // guards the writers map structure
	writers map[int32]*fileWriter
	errOnce sync.Once
	err     error
}

type fileWriter struct {
	mu sync.Mutex
	f  *os.File
	w  *Writer
}

// NewFileSink creates dir (if needed) and returns a sink writing into it.
func NewFileSink(dir string) (*FileSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileSink{dir: dir, writers: make(map[int32]*fileWriter)}, nil
}

func (s *FileSink) writer(rank int32) (*fileWriter, error) {
	s.mu.RLock()
	fw, ok := s.writers[rank]
	s.mu.RUnlock()
	if ok {
		return fw, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if fw, ok = s.writers[rank]; ok {
		return fw, nil
	}
	f, err := os.Create(filepath.Join(s.dir, FileName(rank)))
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, rank)
	if err != nil {
		f.Close()
		return nil, err
	}
	fw = &fileWriter{f: f, w: w}
	s.writers[rank] = fw
	return fw, nil
}

// Emit implements Sink. I/O errors are sticky and surfaced by Close.
func (s *FileSink) Emit(ev Event) {
	fw, err := s.writer(ev.Rank)
	if err != nil {
		s.errOnce.Do(func() { s.err = err })
		return
	}
	fw.mu.Lock()
	fw.w.Emit(ev)
	fw.mu.Unlock()
}

// Err returns the first error recorded so far by the sink or any of its
// per-rank writers, without closing anything. Writer errors are sticky
// (Emit no-ops once a write fails), so run paths should surface Err at
// every close site: a failed trace write must become a visible warning,
// not silent data loss.
func (s *FileSink) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.err != nil {
		return s.err
	}
	ranks := make([]int32, 0, len(s.writers))
	for r := range s.writers {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	for _, r := range ranks {
		fw := s.writers[r]
		fw.mu.Lock()
		err := fw.w.Err()
		fw.mu.Unlock()
		if err != nil {
			return fmt.Errorf("trace: rank %d: %w", r, err)
		}
	}
	return nil
}

// Close flushes and closes all per-rank files, returning the first error
// encountered during emission or closing.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.err
	for _, fw := range s.writers {
		fw.mu.Lock()
		if err := fw.w.Close(); err != nil && first == nil {
			first = err
		}
		if err := fw.f.Close(); err != nil && first == nil {
			first = err
		}
		fw.mu.Unlock()
	}
	s.writers = make(map[int32]*fileWriter)
	return first
}
