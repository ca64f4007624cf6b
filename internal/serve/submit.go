package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Submission is the body of POST /jobs: one trace set to analyze, given
// either as a server-local directory of trace.<rank>.bin files or as
// inline per-rank uploads of the same binary stream format (base64 on
// the JSON wire). Exactly one of the two must be set.
type Submission struct {
	TraceDir string       `json:"trace_dir,omitempty"`
	Traces   []RankUpload `json:"traces,omitempty"`
	// IntraOnly restricts detection to within-epoch conflicts (the
	// SyncChecker baseline).
	IntraOnly bool `json:"intra_only,omitempty"`
	// Strict disables the salvage fallback: a damaged upload fails the
	// job instead of degrading it.
	Strict bool `json:"strict,omitempty"`
}

// RankUpload is one rank's binary trace stream.
type RankUpload struct {
	Rank int32  `json:"rank"`
	Data []byte `json:"data"`
}

// Wire limits. The byte cap is enforced by the HTTP layer before decode;
// the rank cap bounds what a hostile rank field can make the set
// allocate (trace sets are dense in rank).
const (
	// MaxSubmissionBytes caps a submission body.
	MaxSubmissionBytes = 64 << 20
	// MaxUploadRanks caps both the upload count and the rank IDs they
	// may claim.
	MaxUploadRanks = 1024
)

// ParseSubmission decodes and validates a submission body. Unknown
// fields, trailing data, and structurally hostile inputs (duplicate or
// out-of-range ranks, empty payloads) are rejected here, before any
// job is admitted.
func ParseSubmission(data []byte) (*Submission, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sub Submission
	if err := dec.Decode(&sub); err != nil {
		return nil, fmt.Errorf("serve: bad submission: %w", err)
	}
	if dec.More() {
		return nil, errors.New("serve: bad submission: trailing data after JSON object")
	}
	if err := sub.validate(); err != nil {
		return nil, err
	}
	return &sub, nil
}

func (sub *Submission) validate() error {
	if (sub.TraceDir == "") == (len(sub.Traces) == 0) {
		return errors.New("serve: submission must carry exactly one of trace_dir or traces")
	}
	if len(sub.Traces) > MaxUploadRanks {
		return fmt.Errorf("serve: %d rank uploads exceed the limit of %d", len(sub.Traces), MaxUploadRanks)
	}
	seen := make(map[int32]bool, len(sub.Traces))
	for i := range sub.Traces {
		u := &sub.Traces[i]
		if u.Rank < 0 || u.Rank >= MaxUploadRanks {
			return fmt.Errorf("serve: upload %d: rank %d out of range [0,%d)", i, u.Rank, MaxUploadRanks)
		}
		if seen[u.Rank] {
			return fmt.Errorf("serve: duplicate upload for rank %d", u.Rank)
		}
		seen[u.Rank] = true
		if len(u.Data) == 0 {
			return fmt.Errorf("serve: upload for rank %d is empty", u.Rank)
		}
	}
	return nil
}

// load materializes the submission's trace set under sc, which carries
// the job's watchdog ctx and the daemon's registry: strict decode first,
// then — unless Strict — the salvage fallback for damaged payloads, with
// one diagnostic note per degradation, mirroring trace.ReadDirSalvage.
func (sub *Submission) load(sc obs.Scope) (*trace.Set, []string, error) {
	if sub.TraceDir != "" {
		set, err := trace.ReadDirWith(sub.TraceDir, sc)
		if err == nil {
			return set, nil, nil
		}
		if sub.Strict || sc.Err() != nil {
			return nil, nil, err
		}
		set, notes, serr := trace.ReadDirSalvage(sub.TraceDir, sc)
		if serr != nil {
			return nil, nil, serr
		}
		return set, append([]string{fmt.Sprintf("strict read failed: %v", err)}, notes...), nil
	}
	return sub.loadInline(sc)
}

// loadInline assembles a set from the uploaded rank streams, applying
// the same per-file salvage policy and degradation notes as the
// directory path.
func (sub *Submission) loadInline(sc obs.Scope) (*trace.Set, []string, error) {
	reg := sc.Obs
	var notes []string
	byRank := make(map[int32]*trace.Trace, len(sub.Traces))
	maxRank := int32(-1)
	for i := range sub.Traces {
		if err := sc.Err(); err != nil {
			return nil, nil, fmt.Errorf("serve: upload decode canceled: %w", err)
		}
		u := &sub.Traces[i]
		if u.Rank > maxRank {
			maxRank = u.Rank
		}
		t, err := trace.ReadTrace(bytes.NewReader(u.Data))
		if err == nil && t.Rank == u.Rank {
			byRank[u.Rank] = t
			continue
		}
		if err == nil {
			// Decoded fine but the header disagrees with the declared rank:
			// in salvage mode the upload is dropped with a note, exactly
			// like a mis-named file on disk.
			if sub.Strict {
				return nil, nil, fmt.Errorf("serve: rank %d upload: header claims rank %d", u.Rank, t.Rank)
			}
			notes = append(notes, fmt.Sprintf("rank %d upload: header claims rank %d; upload ignored", u.Rank, t.Rank))
			continue
		}
		if sub.Strict {
			return nil, nil, fmt.Errorf("serve: rank %d upload: %w", u.Rank, err)
		}
		st, res, serr := trace.ReadTraceSalvage(bytes.NewReader(u.Data))
		if serr != nil {
			notes = append(notes, fmt.Sprintf("rank %d upload: lost entirely: %v", u.Rank, serr))
			continue
		}
		if st.Rank != u.Rank {
			notes = append(notes, fmt.Sprintf("rank %d upload: header claims rank %d; upload ignored", u.Rank, st.Rank))
			continue
		}
		reg.Counter("mcchecker_trace_salvaged_events_total").Add(int64(res.Events))
		if !res.Complete {
			reg.Counter("mcchecker_trace_truncated_streams_total").Inc()
			notes = append(notes, fmt.Sprintf("rank %d upload: truncated, salvaged %d-event prefix (%s)",
				u.Rank, res.Events, res.Reason))
		}
		byRank[u.Rank] = st
	}
	if len(byRank) == 0 {
		return nil, nil, fmt.Errorf("serve: no usable rank uploads (%d damaged)", len(sub.Traces))
	}
	set := trace.NewSet(int(maxRank + 1))
	for r := int32(0); r <= maxRank; r++ {
		if t := byRank[r]; t != nil {
			set.Traces[r] = t
		} else {
			notes = append(notes, fmt.Sprintf("rank %d: no events recovered", r))
		}
	}
	if err := set.Validate(); err != nil {
		return nil, notes, fmt.Errorf("serve: uploaded set invalid: %w", err)
	}
	return set, notes, nil
}
