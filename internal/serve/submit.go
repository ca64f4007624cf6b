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
	// Strict disables salvage: a damaged upload or trace file fails the
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
// the job's watchdog ctx and the daemon's registry. A directory and an
// upload go through the same salvaging reader, one read each: every
// degradation becomes a note, and a Strict job fails on the first note
// instead.
func (sub *Submission) load(sc obs.Scope) (*trace.Set, []string, error) {
	var set *trace.Set
	var notes []string
	var err error
	if sub.TraceDir != "" {
		set, notes, err = trace.ReadDirSalvage(sub.TraceDir, sc)
	} else {
		streams := make([]trace.Stream, len(sub.Traces))
		for i, u := range sub.Traces {
			streams[i] = trace.Stream{Name: fmt.Sprintf("rank %d upload", u.Rank), Rank: int(u.Rank), Data: u.Data}
		}
		set, notes, err = trace.ReadStreams(streams, sc)
	}
	if err == nil && sub.Strict && len(notes) > 0 {
		return nil, nil, fmt.Errorf("serve: strict job: %s", notes[0])
	}
	return set, notes, err
}
