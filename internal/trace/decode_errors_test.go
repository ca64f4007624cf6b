package trace

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestDecodeErrorTexts pins the decoder's behaviour on one hand-damaged
// stream per error path: the error ReadTrace returns, and the events,
// completeness and reason ReadTraceSalvage reports (or, for a stream whose
// header is unreadable, the error it returns instead).
func TestDecodeErrorTexts(t *testing.T) {
	const (
		header = "MCCT\x02\x06\x01"              // magic, version 2, rank 3 (zig-zag 6), one event
		defs   = "\x01\x01\x04a.go\x01\x02\x01f" // string ids 1 ("a.go") and 2 ("f")
	)
	zeros := func(n int) string { return strings.Repeat("\x00", n) }
	uv := func(v uint64) string { return string(binary.AppendUvarint(nil, v)) }
	sv := func(v int64) string { return string(binary.AppendVarint(nil, v)) }
	barrier := string([]byte{byte(KindBarrier)})
	// open is an event record up to its first signed field: the record
	// tag, a Barrier kind, and the file and func ids.
	open := "\x02" + barrier + "\x01\x02"
	// payload follows the line: six more signed fields, lock and op, and
	// the twelve fields up to and including size, all zero.
	payload := zeros(6) + zeros(2) + zeros(12)
	// event is a whole Barrier record at a.go:7 in f with no Def.
	event := open + sv(7) + payload + zeros(7)

	cases := []struct {
		name   string
		data   string
		strict string // ReadTrace's error
		events int    // events ReadTraceSalvage recovers
		reason string // ReadTraceSalvage's Reason; "" when the header is unreadable
	}{
		{"empty stream", "", "trace: reading header: EOF", 0, ""},
		{"short header", "MCC", "trace: reading header: unexpected EOF", 0, ""},
		{"bad magic", "MCCX\x02\x06\x01\x00", "trace: bad magic", 0, ""},
		{"bad version", "MCCT\x09\x06\x01\x00", "trace: unsupported version 9", 0, ""},
		{"rank varint cut", "MCCT\x02\x80", "trace: reading rank: unexpected EOF", 0, ""},
		{"count hint missing", "MCCT\x02\x06", "trace: reading event-count hint: EOF", 0, ""},
		{"count hint of 11 bytes", "MCCT\x02\x06" + strings.Repeat("\x80", 10) + "\x01",
			"trace: reading event-count hint: binary: varint overflows a 64-bit integer", 0, ""},

		{"missing end record", header + defs + event,
			"trace: reading record tag: EOF", 1, "stream ended without end record: EOF"},
		{"unknown record tag", header + defs + event + "\x07",
			"trace: unknown record tag 0x7", 1, "unknown record tag 0x7"},

		{"string id cut", header + "\x01",
			"EOF", 0, "bad string definition: EOF"},
		{"string id out of order", header + defs + "\x01\x04\x01x",
			"trace: string id 4 out of order", 0, "bad string definition: trace: string id 4 out of order"},
		{"string too long", header + "\x01\x01" + uv(1<<20+1),
			"trace: string of 1048577 bytes too long", 0, "bad string definition: trace: string of 1048577 bytes too long"},
		{"string bytes cut", header + "\x01\x01\x0aab",
			"unexpected EOF", 0, "bad string definition: unexpected EOF"},
		{"string bytes missing", header + "\x01\x01\x0a",
			"EOF", 0, "bad string definition: EOF"},

		{"kind missing", header + defs + "\x02",
			"trace: rank 3 event 0: EOF", 0, "event 0 undecodable: EOF"},
		{"invalid kind 0", header + defs + "\x02\x00",
			"trace: rank 3 event 0: invalid kind 0", 0, "event 0 undecodable: invalid kind 0"},
		{"invalid kind 200", header + defs + event + "\x02\xc8",
			"trace: rank 3 event 1: invalid kind 200", 1, "event 1 undecodable: invalid kind 200"},

		{"undefined string id", header + defs + "\x02" + barrier + "\x05",
			"trace: rank 3 event 0: undefined string id 5", 0, "event 0 undecodable: undefined string id 5"},
		{"undefined two-byte string id", header + defs + "\x02" + barrier + "\x01" + uv(200),
			"trace: rank 3 event 0: undefined string id 200", 0, "event 0 undecodable: undefined string id 200"},
		{"file id cut", header + defs + "\x02" + barrier + "\x81",
			"trace: rank 3 event 0: unexpected EOF", 0, "event 0 undecodable: unexpected EOF"},

		{"truncated varint", header + defs + open + "\x80",
			"trace: rank 3 event 0: unexpected EOF", 0, "event 0 undecodable: unexpected EOF"},
		{"record cut after a field", header + defs + open + sv(7),
			"trace: rank 3 event 0: EOF", 0, "event 0 undecodable: EOF"},
		{"11-byte varint", header + defs + open + strings.Repeat("\x80", 10) + "\x01" + payload + zeros(7),
			"trace: rank 3 event 0: binary: varint overflows a 64-bit integer", 0,
			"event 0 undecodable: binary: varint overflows a 64-bit integer"},
		{"10-byte varint past 64 bits", header + defs + open + strings.Repeat("\xff", 9) + "\x02" + payload + zeros(7),
			"trace: rank 3 event 0: binary: varint overflows a 64-bit integer", 0,
			"event 0 undecodable: binary: varint overflows a 64-bit integer"},
		{"int32 overflow", header + defs + open + sv(1<<31) + payload + zeros(7),
			"trace: rank 3 event 0: trace: field value 2147483648 overflows int32", 0,
			"event 0 undecodable: trace: field value 2147483648 overflows int32"},
		{"int32 underflow", header + defs + open + sv(7) + sv(-1<<31-1) + zeros(5) + zeros(2) + zeros(12) + zeros(7),
			"trace: rank 3 event 0: trace: field value -2147483649 overflows int32", 0,
			"event 0 undecodable: trace: field value -2147483649 overflows int32"},
		{"first error wins", header + defs + open + sv(1<<40) + "\x80",
			"trace: rank 3 event 0: trace: field value 1099511627776 overflows int32", 0,
			"event 0 undecodable: trace: field value 1099511627776 overflows int32"},

		{"too many segments", header + defs + open + sv(7) + payload + "\x00" + uv(1<<16+1),
			"trace: rank 3 event 0: datatype with 65537 segments too large", 0,
			"event 0 undecodable: datatype with 65537 segments too large"},
		{"too many members", header + defs + open + sv(7) + payload + "\x00\x00\x00" + uv(1<<20+1),
			"trace: rank 3 event 0: communicator with 1048577 members too large", 0,
			"event 0 undecodable: communicator with 1048577 members too large"},
		{"member overflows int32", header + defs + open + sv(7) + payload + "\x00\x00\x00\x01" + sv(1<<33) + zeros(3),
			"trace: rank 3 event 0: trace: field value 8589934592 overflows int32", 0,
			"event 0 undecodable: trace: field value 8589934592 overflows int32"},
		{"def cut", header + defs + open + sv(7) + payload + "\x00\x01",
			"trace: rank 3 event 0: EOF", 0, "event 0 undecodable: EOF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := []byte(c.data)
			_, err := ReadTrace(data)
			if got := errText(err); got != c.strict {
				t.Errorf("ReadTrace error = %q, want %q", got, c.strict)
			}
			tr, res, err := ReadTraceSalvage(data)
			if c.reason == "" {
				if tr != nil || res != (SalvageResult{}) || errText(err) != c.strict {
					t.Errorf("ReadTraceSalvage = %v, %+v, %q; want no trace, a zero result and %q",
						tr, res, errText(err), c.strict)
				}
				return
			}
			want := SalvageResult{Events: c.events, Reason: c.reason}
			if err != nil || tr == nil || res != want || len(tr.Events) != c.events {
				t.Errorf("ReadTraceSalvage = %v, %+v, %v; want %d events and %+v", tr, res, err, c.events, want)
			}
		})
	}
}

// errText is err's text, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
