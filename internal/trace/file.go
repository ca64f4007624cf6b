package trace

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Trace files are named trace.<rank>.bin inside a trace directory, one per
// rank, mirroring the paper's per-process local trace files.

// FileName returns the trace file name for a rank.
func FileName(rank int32) string { return fmt.Sprintf("trace.%d.bin", rank) }

// WriteDir writes each rank's trace into dir (created if needed), one
// file per rank, replacing the trace files of an earlier run. Trace i of s
// must be present and labelled rank i; a set that is not fails before dir
// is touched.
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
