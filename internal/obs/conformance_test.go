package obs

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

// Conformance of WritePrometheus to the text exposition format (0.0.4):
// HELP immediately precedes TYPE, each family is announced exactly once,
// label values and help text are escaped, and histogram buckets are
// cumulative and end at +Inf.

func conformanceSnapshot() *Snapshot {
	reg := NewRegistry()
	// A name with registered help text, plus labels needing escaping.
	reg.Counter("mcchecker_trace_decoded_events_total").Add(7)
	reg.Counter("mcchecker_analysis_violations_total", "class", `quo"te`).Inc()
	reg.Counter("mcchecker_analysis_violations_total", "class", "back\\slash\nnewline").Inc()
	reg.Gauge("mcchecker_pipeline_decode_events_per_sec").Set(4)
	h := reg.Histogram("mcchecker_stream_slab_events")
	h.Observe(1)
	h.Observe(100)
	sp := reg.Span("mcchecker_phase_seconds", "phase", "model")
	sp.count.Add(1)
	sp.totalNs.Add(int64(250 * time.Millisecond))
	sp.maxNs.Store(int64(250 * time.Millisecond))
	return reg.Snapshot()
}

func TestPrometheusExpositionConformance(t *testing.T) {
	var sb strings.Builder
	if err := conformanceSnapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")

	helpRe := regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

	typed := map[string]string{}
	lastHelp := ""
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			m := helpRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed HELP line %q", i+1, line)
			}
			if strings.ContainsAny(m[2], "\n") {
				t.Fatalf("line %d: unescaped newline in help text", i+1)
			}
			lastHelp = m[1]
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE line %q", i+1, line)
			}
			name := m[1]
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: family %s announced twice", i+1, name)
			}
			typed[name] = m[2]
			if Help(name) != "" && lastHelp != name {
				t.Fatalf("line %d: family %s has help text but no immediately preceding HELP line", i+1, name)
			}
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", i+1, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample %q", i+1, line)
			}
			lastHelp = ""
			// Every sample belongs to an announced family (stripping
			// histogram/summary suffixes).
			name := m[1]
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if b := strings.TrimSuffix(name, suf); b != name {
					if _, ok := typed[b]; ok {
						base = b
					}
				}
			}
			if _, ok := typed[base]; !ok {
				t.Fatalf("line %d: sample %s has no TYPE announcement", i+1, name)
			}
		}
	}

	// Label escaping: the raw quote, backslash, and newline must appear
	// escaped inside label values, never raw.
	if !strings.Contains(out, `class="quo\"te"`) {
		t.Errorf("quote not escaped in label value:\n%s", out)
	}
	if !strings.Contains(out, `class="back\\slash\nnewline"`) {
		t.Errorf("backslash/newline not escaped in label value:\n%s", out)
	}

	// Families exposing as the right kinds.
	for name, want := range map[string]string{
		"mcchecker_trace_decoded_events_total":     "counter",
		"mcchecker_pipeline_decode_events_per_sec": "gauge",
		"mcchecker_stream_slab_events":             "histogram",
		"mcchecker_phase_seconds":                  "summary",
	} {
		if got := typed[name]; got != want {
			t.Errorf("family %s: TYPE %q, want %q", name, got, want)
		}
	}

	// Histogram shape: cumulative buckets ending at +Inf, plus _sum/_count.
	if !strings.Contains(out, `mcchecker_stream_slab_events_bucket{le="+Inf"} 2`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, "mcchecker_stream_slab_events_count 2") ||
		!strings.Contains(out, "mcchecker_stream_slab_events_sum 101") {
		t.Errorf("missing histogram _sum/_count:\n%s", out)
	}

	// Summary: seconds as float.
	if !strings.Contains(out, `mcchecker_phase_seconds_sum{phase="model"} 0.25`) {
		t.Errorf("span summary not exposed in seconds:\n%s", out)
	}
}

func TestHelpOrderingBeforeType(t *testing.T) {
	var sb strings.Builder
	if err := conformanceSnapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# HELP ") {
			continue
		}
		name := strings.Fields(line)[2]
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
			t.Errorf("HELP for %s not immediately followed by its TYPE line", name)
		}
	}
}

func TestEscapeHelp(t *testing.T) {
	in := `back\slash` + "\nand newline"
	want := `back\\slash\nand newline`
	if got := escapeHelp(in); got != want {
		t.Errorf("escapeHelp(%q) = %q, want %q", in, got, want)
	}
}
