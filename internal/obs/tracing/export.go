package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Chrome trace-event export: the JSON Array/Object format understood by
// Perfetto (ui.perfetto.dev) and chrome://tracing. Tracks become
// processes (pid), lanes become threads (tid), spans become complete
// ("X") events with microsecond timestamps, instants become "i" events.
// The export is rendered with a fixed field order and fully sorted
// (tracks and lanes in natural order, events by timestamp with the
// per-lane sequence as tie-breaker), so the same recording always
// serializes to the same bytes — the property the determinism tests pin.

// WriteChromeTrace renders the recording as Chrome trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	var events []event
	if r != nil {
		events = r.snapshot()
	}

	// Deterministic track/lane numbering: natural order of names.
	trackLanes := map[string]map[string]bool{}
	for i := range events {
		ev := &events[i]
		if trackLanes[ev.track] == nil {
			trackLanes[ev.track] = map[string]bool{}
		}
		trackLanes[ev.track][ev.lane] = true
	}
	tracks := make([]string, 0, len(trackLanes))
	for t := range trackLanes {
		tracks = append(tracks, t)
	}
	sort.Slice(tracks, func(i, j int) bool { return naturalLess(tracks[i], tracks[j]) })
	pid := map[string]int{}
	tid := map[laneKey]int{}
	laneOrder := map[string][]string{}
	for i, t := range tracks {
		pid[t] = i + 1
		lanes := make([]string, 0, len(trackLanes[t]))
		for l := range trackLanes[t] {
			lanes = append(lanes, l)
		}
		sort.Slice(lanes, func(a, b int) bool { return naturalLess(lanes[a], lanes[b]) })
		laneOrder[t] = lanes
		for j, l := range lanes {
			tid[laneKey{t, l}] = j
		}
	}

	sort.Slice(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if a.track != b.track {
			return naturalLess(a.track, b.track)
		}
		if a.lane != b.lane {
			return naturalLess(a.lane, b.lane)
		}
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.dur != b.dur {
			return a.dur > b.dur // parent spans before the spans they contain
		}
		return a.seq < b.seq
	})

	var sb strings.Builder
	sb.WriteString("{\"traceEvents\":[")
	first := true
	emit := func(line string) {
		if !first {
			sb.WriteString(",\n")
		} else {
			sb.WriteString("\n")
			first = false
		}
		sb.WriteString(line)
	}
	// Metadata: process (track) and thread (lane) names, plus sort
	// indexes so Perfetto lists them in our natural order.
	for _, t := range tracks {
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			pid[t], strconv.Quote(t)))
		emit(fmt.Sprintf(`{"name":"process_sort_index","ph":"M","pid":%d,"tid":0,"args":{"sort_index":%d}}`,
			pid[t], pid[t]))
		for _, l := range laneOrder[t] {
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				pid[t], tid[laneKey{t, l}], strconv.Quote(l)))
			emit(fmt.Sprintf(`{"name":"thread_sort_index","ph":"M","pid":%d,"tid":%d,"args":{"sort_index":%d}}`,
				pid[t], tid[laneKey{t, l}], tid[laneKey{t, l}]))
		}
	}
	for i := range events {
		ev := &events[i]
		var line strings.Builder
		fmt.Fprintf(&line, `{"name":%s,`, strconv.Quote(ev.name))
		if ev.dur < 0 {
			fmt.Fprintf(&line, `"ph":"i","s":"t","ts":%d,`, ev.ts)
		} else {
			fmt.Fprintf(&line, `"ph":"X","ts":%d,"dur":%d,`, ev.ts, ev.dur)
		}
		fmt.Fprintf(&line, `"pid":%d,"tid":%d`, pid[ev.track], tid[laneKey{ev.track, ev.lane}])
		if len(ev.args) >= 2 {
			line.WriteString(`,"args":{`)
			for k := 0; k+1 < len(ev.args); k += 2 {
				if k > 0 {
					line.WriteByte(',')
				}
				line.WriteString(strconv.Quote(ev.args[k]))
				line.WriteByte(':')
				line.WriteString(strconv.Quote(ev.args[k+1]))
			}
			line.WriteByte('}')
		}
		line.WriteByte('}')
		emit(line.String())
	}
	sb.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// Summary describes a validated Chrome trace for smoke checks.
type Summary struct {
	Events   int // span + instant events (metadata excluded)
	Tracks   int
	Lanes    int
	Metadata int
}

// ValidateChromeTrace parses data as Chrome trace-event JSON and checks
// the shape every consumer (Perfetto, chrome://tracing, catapult)
// relies on: a traceEvents array whose entries carry name/ph/pid/tid,
// with numeric ts and dur on complete events. It returns a summary of
// what the trace contains, or an error naming the first malformed event.
func ValidateChromeTrace(data []byte) (*Summary, error) {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("tracing: not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("tracing: traceEvents is missing or empty")
	}
	sum := &Summary{}
	pids := map[float64]bool{}
	lanes := map[[2]float64]bool{}
	for i, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		if name == "" {
			return nil, fmt.Errorf("tracing: event %d has no name", i)
		}
		ph, _ := ev["ph"].(string)
		pidV, pidOK := ev["pid"].(float64)
		tidV, tidOK := ev["tid"].(float64)
		if !pidOK || !tidOK {
			return nil, fmt.Errorf("tracing: event %d (%s) lacks numeric pid/tid", i, name)
		}
		switch ph {
		case "M":
			sum.Metadata++
			continue
		case "X":
			ts, tsOK := ev["ts"].(float64)
			dur, durOK := ev["dur"].(float64)
			if !tsOK || !durOK || ts < 0 || dur < 0 {
				return nil, fmt.Errorf("tracing: complete event %d (%s) needs ts and dur >= 0", i, name)
			}
		case "i":
			if _, ok := ev["ts"].(float64); !ok {
				return nil, fmt.Errorf("tracing: instant event %d (%s) needs a numeric ts", i, name)
			}
		default:
			return nil, fmt.Errorf("tracing: event %d (%s) has unsupported phase %q", i, name, ph)
		}
		sum.Events++
		pids[pidV] = true
		lanes[[2]float64{pidV, tidV}] = true
	}
	if sum.Events == 0 {
		return nil, fmt.Errorf("tracing: trace holds only metadata, no spans or instants")
	}
	sum.Tracks = len(pids)
	sum.Lanes = len(lanes)
	return sum, nil
}

// naturalLess compares strings with embedded integers numerically, so
// "worker 2" sorts before "worker 10" and "region 9" before "region 12".
func naturalLess(a, b string) bool {
	for a != "" && b != "" {
		ad, an := leadingInt(a)
		bd, bn := leadingInt(b)
		if an > 0 && bn > 0 {
			if ad != bd {
				return ad < bd
			}
			a, b = a[an:], b[bn:]
			continue
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		a, b = a[1:], b[1:]
	}
	return a == "" && b != ""
}

// leadingInt parses the digit prefix of s, returning its value and length
// (0 length when s does not start with a digit).
func leadingInt(s string) (int64, int) {
	n := 0
	var v int64
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		if v < 1<<56 {
			v = v*10 + int64(s[n]-'0')
		}
		n++
	}
	return v, n
}
