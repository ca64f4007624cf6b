package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// hostileHintStream builds a codec-v2 header whose event-count hint
// claims 2^62 events: the decoders must clamp the preallocation rather
// than trust the wire.
func hostileHintStream(tail []byte) []byte {
	b := []byte("MCCT")
	b = append(b, 2)                   // codec version 2
	b = binary.AppendVarint(b, 0)      // rank 0
	b = binary.AppendUvarint(b, 1<<62) // hostile count hint
	return append(b, tail...)
}

func fuzzSeed(f *testing.F, sub *Submission) {
	f.Helper()
	data, err := json.Marshal(sub)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
}

// FuzzParseSubmission drives the job-submission decode path — JSON shape
// validation plus the inline trace decode with its salvage fallback —
// with hostile bytes. The invariant is narrow and absolute: no input may
// panic or hang the decoder, however malformed the JSON or however
// hostile the embedded codec stream's claims.
func FuzzParseSubmission(f *testing.F) {
	clean := &trace.Trace{Rank: 0}
	clean.Events = append(clean.Events, trace.Event{Kind: trace.KindBarrier})
	cleanData, err := trace.EncodeTrace(clean)
	if err != nil {
		f.Fatal(err)
	}
	fuzzSeed(f, &Submission{Traces: []RankUpload{{Rank: 0, Data: cleanData}}})
	fuzzSeed(f, &Submission{Traces: []RankUpload{{Rank: 0, Data: cleanData[:len(cleanData)/2]}}})
	fuzzSeed(f, &Submission{Traces: []RankUpload{{Rank: 0, Data: hostileHintStream(nil)}}})
	fuzzSeed(f, &Submission{Traces: []RankUpload{{Rank: 0, Data: hostileHintStream(cleanData[5:])}}})
	fuzzSeed(f, &Submission{TraceDir: "relative/dir", Strict: true})
	f.Add([]byte(`{`))
	f.Add([]byte(`{"traces":[{"rank":9e9,"data":"AA=="}]}`))
	f.Add([]byte(`{"traces":null,"trace_dir":""}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // the HTTP layer caps bodies long before this
		}
		sub, err := ParseSubmission(data)
		if err != nil {
			return
		}
		if sub.TraceDir != "" {
			return // directory jobs touch the filesystem; out of scope here
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		set, notes, err := sub.loadInline(obs.Scope{Ctx: ctx})
		if err != nil {
			return
		}
		if set == nil || set.Ranks() == 0 {
			t.Fatalf("loadInline returned no error but an empty set (notes %v)", notes)
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("loadInline returned an invalid set: %v", err)
		}
	})
}
