package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/memory"
)

// JSON-lines interchange: one event object per line, for consumption by
// external tooling (scripts, notebooks) without linking the binary decoder.
// The schema mirrors Event with zero fields omitted; Kind is rendered by
// name for readability and parsed back by name or number.

type eventJSONL struct {
	Kind string `json:"kind"`
	Rank int32  `json:"rank"`
	Seq  int64  `json:"seq"`
	File string `json:"file,omitempty"`
	Line int32  `json:"line,omitempty"`
	Func string `json:"func,omitempty"`

	Comm int32 `json:"comm,omitempty"`
	Peer int32 `json:"peer,omitempty"`
	Tag  int32 `json:"tag,omitempty"`
	Req  int32 `json:"req,omitempty"`

	Win         int32  `json:"win,omitempty"`
	Target      int32  `json:"target,omitempty"`
	Lock        string `json:"lock,omitempty"`
	AccOp       string `json:"accop,omitempty"`
	OriginAddr  uint64 `json:"origin_addr,omitempty"`
	OriginType  int32  `json:"origin_type,omitempty"`
	OriginCount int32  `json:"origin_count,omitempty"`
	TargetDisp  uint64 `json:"target_disp,omitempty"`
	TargetType  int32  `json:"target_type,omitempty"`
	TargetCount int32  `json:"target_count,omitempty"`
	ResultAddr  uint64 `json:"result_addr,omitempty"`
	ResultType  int32  `json:"result_type,omitempty"`
	ResultCount int32  `json:"result_count,omitempty"`
	Assert      int32  `json:"assert,omitempty"`

	Addr uint64 `json:"addr,omitempty"`
	Size uint64 `json:"size,omitempty"`

	TypeID   int32    `json:"type_id,omitempty"`
	TypeMap  []uint64 `json:"type_map,omitempty"` // flattened (disp,len) pairs + trailing extent
	Members  []int32  `json:"members,omitempty"`
	WinBase  uint64   `json:"win_base,omitempty"`
	WinSize  uint64   `json:"win_size,omitempty"`
	DispUnit uint32   `json:"disp_unit,omitempty"`
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, int(kindMax))
	for k := Kind(1); k < kindMax; k++ {
		m[k.String()] = k
	}
	return m
}()

// WriteJSONL writes every event of the set as one JSON object per line,
// ordered by rank then sequence.
func WriteJSONL(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range s.Traces {
		for i := range t.Events {
			ev := &t.Events[i]
			j := eventJSONL{
				Kind: ev.Kind.String(), Rank: ev.Rank, Seq: ev.Seq,
				File: ev.File, Line: ev.Line, Func: ev.Func,
				Comm: ev.Comm, Peer: ev.Peer, Tag: ev.Tag, Req: ev.Req,
				Win: ev.Win, Target: ev.Target,
				OriginAddr: ev.OriginAddr, OriginType: ev.OriginType, OriginCount: ev.OriginCount,
				TargetDisp: ev.TargetDisp, TargetType: ev.TargetType, TargetCount: ev.TargetCount,
				ResultAddr: ev.ResultAddr, ResultType: ev.ResultType, ResultCount: ev.ResultCount,
				Assert: ev.Assert, Addr: ev.Addr, Size: ev.Size,
				TypeID: ev.TypeID(), Members: ev.Members(),
				WinBase: ev.WinBase(), WinSize: ev.WinSize(), DispUnit: ev.DispUnit(),
			}
			if ev.Lock != LockNone {
				j.Lock = ev.Lock.String()
			}
			if ev.AccOp != OpNone {
				j.AccOp = ev.AccOp.String()
			}
			if tm := ev.TypeMap(); len(tm.Segments) > 0 {
				for _, seg := range tm.Segments {
					j.TypeMap = append(j.TypeMap, seg.Disp, seg.Len)
				}
				j.TypeMap = append(j.TypeMap, tm.Extent)
			}
			if err := enc.Encode(&j); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSON-lines stream back into a Set.
func ReadJSONL(r io.Reader) (*Set, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	byRank := map[int32][]Event{}
	maxRank := int32(-1)
	for {
		var j eventJSONL
		if err := dec.Decode(&j); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: jsonl: %w", err)
		}
		kind, ok := kindByName[j.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: jsonl: unknown kind %q", j.Kind)
		}
		ev := Event{
			Kind: kind, Rank: j.Rank, Seq: j.Seq,
			File: j.File, Line: j.Line, Func: j.Func,
			Comm: j.Comm, Peer: j.Peer, Tag: j.Tag, Req: j.Req,
			Win: j.Win, Target: j.Target,
			OriginAddr: j.OriginAddr, OriginType: j.OriginType, OriginCount: j.OriginCount,
			TargetDisp: j.TargetDisp, TargetType: j.TargetType, TargetCount: j.TargetCount,
			ResultAddr: j.ResultAddr, ResultType: j.ResultType, ResultCount: j.ResultCount,
			Assert: j.Assert, Addr: j.Addr, Size: j.Size,
		}
		switch j.Lock {
		case "shared":
			ev.Lock = LockShared
		case "exclusive":
			ev.Lock = LockExclusive
		}
		for i, name := range accOpNames {
			if name == j.AccOp {
				ev.AccOp = AccOp(i)
			}
		}
		def := Def{TypeID: j.TypeID, Members: j.Members, WinBase: j.WinBase, WinSize: j.WinSize, DispUnit: j.DispUnit}
		if n := len(j.TypeMap); n > 0 {
			if n%2 != 1 {
				return nil, fmt.Errorf("trace: jsonl: malformed type_map of %d values", n)
			}
			for i := 0; i+1 < n; i += 2 {
				def.TypeMap.Segments = append(def.TypeMap.Segments,
					segmentFrom(j.TypeMap[i], j.TypeMap[i+1]))
			}
			def.TypeMap.Extent = j.TypeMap[n-1]
		}
		if !def.isZero() {
			ev.Def = &def
		}
		byRank[ev.Rank] = append(byRank[ev.Rank], ev)
		if ev.Rank > maxRank {
			maxRank = ev.Rank
		}
	}
	s := NewSet(int(maxRank + 1))
	for r, evs := range byRank {
		s.Traces[r].Events = evs
	}
	return s, s.Validate()
}

func segmentFrom(disp, length uint64) memory.Segment {
	return memory.Segment{Disp: disp, Len: length}
}
