package core

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"

	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Severity grades a detected consistency violation.
type Severity uint8

const (
	// SevError: conflicting concurrent operations with undefined outcome.
	SevError Severity = iota
	// SevWarning: operations that conflict by the memory model but are
	// serialized by exclusive locks, so the outcome is defined but
	// order-dependent (paper §VII-A-2 reports these as warnings).
	SevWarning
)

func (s Severity) String() string {
	if s == SevWarning {
		return "WARNING"
	}
	return "ERROR"
}

// Class distinguishes the paper's two error classes (§III-C).
type Class uint8

const (
	// WithinEpoch: conflicting operations inside one epoch of one process.
	WithinEpoch Class = iota
	// AcrossProcesses: conflicting operations from different processes.
	AcrossProcesses
)

func (c Class) String() string {
	if c == WithinEpoch {
		return "within-epoch"
	}
	return "across-processes"
}

// Violation is one detected memory consistency error, with the diagnostic
// information the paper reports: the pair of conflicting operations and
// their source locations.
type Violation struct {
	Severity Severity
	Class    Class
	Rule     string // human-readable rule that fired

	A, B trace.Event // copies of the conflicting events

	Win     int32           // window involved (0 if none resolvable)
	Overlap memory.Interval // overlapping bytes; empty for no-overlap rules
	Region  int             // concurrent region index (cross-process only)

	Count int // occurrences folded into this report entry

	// Witness is the happens-before chain left open between A and B: the
	// ordered synchronization and epoch events showing why the pair is
	// unordered (see witness.go). It describes the first recorded
	// instance of the violation; folded duplicates share it. Excluded
	// from Key() and Signature().
	Witness []WitnessStep

	// witnessFn lazily builds Witness: detectors attach a closure so the
	// chain is only reconstructed for violations that survive dedup (the
	// add sites sit on the detection hot paths). Resolved by Report.add.
	witnessFn func() []WitnessStep

	// Cached identity strings. Both are pure functions of fields fixed at
	// construction (never of Count), so they are computed once on first
	// use — Key() and Signature() sit on the dedup and sort hot paths and
	// used to burn six fmt.Sprintf calls per invocation.
	dedupKey string
	sig      string
}

// Key identifies a violation for deduplication: the same pair of source
// locations conflicting by the same rule on the same window is reported
// once with a count. Online analysis folds its slab reports by it too.
func (v *Violation) Key() string {
	if v.dedupKey == "" {
		a := operandString(&v.A, false)
		b := operandString(&v.B, false)
		if b < a {
			a, b = b, a
		}
		var sb strings.Builder
		sb.Grow(len(a) + len(b) + len(v.Rule) + 16)
		sb.WriteString(a)
		sb.WriteByte('|')
		sb.WriteString(b)
		sb.WriteByte('|')
		sb.WriteString(v.Rule)
		sb.WriteByte('|')
		sb.WriteString(strconv.FormatInt(int64(v.Win), 10))
		v.dedupKey = sb.String()
	}
	return v.dedupKey
}

// presetKey assembles the dedup key from pre-rendered operand strings —
// byte-identical to what Key() would build from the events. The shadow
// engine renders each access site's operand string once (site-interned in
// its depot) and presets v.dedupKey at construction, keeping the
// per-violation cost off the hot path. aOp and bOp are operandString
// renderings of v.A and v.B with short=false, in either order.
func presetKey(v *Violation, aOp, bOp string) {
	if bOp < aOp {
		aOp, bOp = bOp, aOp
	}
	var sb strings.Builder
	sb.Grow(len(aOp) + len(bOp) + len(v.Rule) + 16)
	sb.WriteString(aOp)
	sb.WriteByte('|')
	sb.WriteString(bOp)
	sb.WriteByte('|')
	sb.WriteString(v.Rule)
	sb.WriteByte('|')
	sb.WriteString(strconv.FormatInt(int64(v.Win), 10))
	v.dedupKey = sb.String()
}

// Signature returns the violation's canonical identity: severity, class,
// rule, and the sorted pair of conflicting operations (kind, call site,
// routine), plus whether a window was involved. It deliberately excludes
// everything placement- and schedule-dependent — rank IDs, window IDs,
// region indexes, overlap offsets, counts, seeds — so the same program
// bug signs identically whichever ranks it lands on and under whichever
// legal schedule it manifests. The schedule explorer (internal/explore)
// dedups thousands of schedules down to distinct signatures.
func (v *Violation) Signature() string {
	if v.sig == "" {
		a := operandString(&v.A, true)
		b := operandString(&v.B, true)
		if b < a {
			a, b = b, a
		}
		win := "nowin"
		if v.Win != 0 || v.Class == AcrossProcesses {
			win = "win"
		}
		sev, cls := v.Severity.String(), v.Class.String()
		var sb strings.Builder
		sb.Grow(len(sev) + len(cls) + len(v.Rule) + len(a) + len(b) + len(win) + 5)
		sb.WriteString(sev)
		sb.WriteByte('|')
		sb.WriteString(cls)
		sb.WriteByte('|')
		sb.WriteString(v.Rule)
		sb.WriteByte('|')
		sb.WriteString(a)
		sb.WriteByte('|')
		sb.WriteString(b)
		sb.WriteByte('|')
		sb.WriteString(win)
		v.sig = sb.String()
	}
	return v.sig
}

// operandString renders one side of a conflicting pair as
// "<kind>@<file:line>#<func>" in a single builder pass, matching the
// fmt.Sprintf("%s@%s#%s", kind, ev.Loc(), fn) rendering it replaced.
func operandString(ev *trace.Event, short bool) string {
	fn := ev.Func
	if short {
		fn = shortFunc(fn)
	}
	kind := ev.Kind.String()
	var sb strings.Builder
	sb.Grow(len(kind) + len(ev.File) + len(fn) + 16)
	sb.WriteString(kind)
	sb.WriteByte('@')
	if ev.File == "" {
		sb.WriteByte('?')
	} else {
		sb.WriteString(path.Base(ev.File))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatInt(int64(ev.Line), 10))
	}
	sb.WriteByte('#')
	sb.WriteString(fn)
	return sb.String()
}

// Hint suggests a remediation for the violated rule, in the spirit of the
// paper's goal that diagnostics "help programmers locate and fix the bugs".
func (v *Violation) Hint() string {
	r := v.Rule
	switch {
	case strings.Contains(r, "origin buffer of a pending Get"),
		strings.Contains(r, "result buffer of a pending"):
		return "close the epoch (fence, unlock, complete, or an MPI-3 flush) before touching the destination buffer"
	case strings.Contains(r, "origin buffer of a pending"):
		return "delay reuse of the origin buffer until the epoch closes, or complete it early with MPI-3 Win_flush_local"
	case strings.Contains(r, "buffer of") && strings.Contains(r, "overlaps the"):
		return "give concurrent operations in one epoch distinct local buffers"
	case v.Class == WithinEpoch && strings.Contains(r, "target regions"):
		return "split the operations into separate epochs or make the target regions disjoint"
	case strings.Contains(r, "erroneous even without overlap"):
		return "do not store into an exposed window while remote updates may be in flight; separate the accesses with interprocess synchronization"
	case strings.Contains(r, "local") && v.Class == AcrossProcesses:
		return "order the local access against the remote epoch with synchronization (e.g. a barrier after the origin's unlock)"
	case v.Class == AcrossProcesses:
		return "order the conflicting epochs with synchronization, make their target regions disjoint, or use same-operation accumulates"
	}
	return "separate the conflicting operations with MPI synchronization"
}

func (v *Violation) String() string { return string(v.appendText(nil)) }

// appendText appends the violation's text rendering to b: the rule, both
// operands, the overlap, the witness chain and the hint. It is the one
// renderer behind Violation.String and Report.String.
func (v *Violation) appendText(b []byte) []byte {
	b = append(b, v.Severity.String()...)
	b = append(b, " ["...)
	b = append(b, v.Class.String()...)
	b = append(b, "] "...)
	b = append(b, v.Rule...)
	b = append(b, "\n  (1) rank "...)
	b = strconv.AppendInt(b, int64(v.A.Rank), 10)
	b = appendCall(b, &v.A)
	b = append(b, "\n  (2) rank "...)
	b = strconv.AppendInt(b, int64(v.B.Rank), 10)
	b = appendCall(b, &v.B)
	if !v.Overlap.Empty() {
		b = append(b, "\n  overlapping bytes: "...)
		b = v.Overlap.Append(b)
	} else {
		b = append(b, "\n  no byte overlap required by this rule"...)
	}
	if v.Win != 0 || v.Class == AcrossProcesses {
		b = append(b, "; window "...)
		b = strconv.AppendInt(b, int64(v.Win), 10)
	}
	if v.Count > 1 {
		b = append(b, "; occurred "...)
		b = strconv.AppendInt(b, int64(v.Count), 10)
		b = append(b, " times"...)
	}
	if len(v.Witness) > 0 {
		b = append(b, "\n  witness (happens-before chain left open):"...)
		for i := range v.Witness {
			b = append(b, "\n    "...)
			b = v.Witness[i].appendText(b)
		}
	}
	b = append(b, "\n  hint: "...)
	return append(b, v.Hint()...)
}

// appendCall appends the part of an operand or witness line that names
// the event's call: ": <kind> at <file:line> (<func>)".
func appendCall(b []byte, ev *trace.Event) []byte {
	b = append(b, ": "...)
	b = append(b, ev.Kind.String()...)
	b = append(b, " at "...)
	b = ev.AppendLoc(b)
	b = append(b, " ("...)
	b = append(b, shortFunc(ev.Func)...)
	return append(b, ')')
}

func shortFunc(f string) string {
	if f == "" {
		return "?"
	}
	if i := strings.LastIndexByte(f, '/'); i >= 0 {
		f = f[i+1:]
	}
	return f
}

// Report is the result of one analysis run.
type Report struct {
	Violations []*Violation

	// Analysis statistics.
	EventsAnalyzed int
	Regions        int
	EpochsChecked  int

	// Stats, when set, is the observability snapshot of the run that
	// produced this report (per-phase wall times, simulator and profiler
	// counters). It is carried through the JSON rendering; the text
	// rendering leaves it to the caller (`mcchecker ... -stats`).
	Stats *obs.Snapshot

	// Degraded lists the degradations behind this report — rank crashes,
	// truncated traces, salvage prefix cuts. Empty for a clean run over
	// complete inputs; non-empty means the report may under-approximate
	// the program's behavior (it covers only the events listed as
	// analyzed).
	Degraded []string
}

// add records a violation, folding duplicates. The first instance of a
// key wins, witness included.
func (r *Report) add(index map[string]*Violation, v *Violation) {
	if prev, ok := index[v.Key()]; ok {
		prev.Count++
		return
	}
	v.Count = 1
	v.resolveWitness()
	index[v.Key()] = v
	r.Violations = append(r.Violations, v)
}

// resolveWitness materializes the lazy witness chain once the violation
// is known to enter a report.
func (v *Violation) resolveWitness() {
	if v.Witness == nil && v.witnessFn != nil {
		v.Witness = v.witnessFn()
	}
	v.witnessFn = nil
}

// RecordTotals adds the report's totals to reg's analysis counters: its
// events, regions, epochs and violations. Each report a caller receives
// is recorded once: AnalyzeWith and AnalyzeDegraded record theirs, and
// the streaming checker the report it merges from its slabs.
func (r *Report) RecordTotals(reg *obs.Registry) {
	reg.Counter("mcchecker_analysis_events_total").Add(int64(r.EventsAnalyzed))
	reg.Counter("mcchecker_analysis_regions_total").Add(int64(r.Regions))
	reg.Counter("mcchecker_analysis_epochs_total").Add(int64(r.EpochsChecked))
	reg.Counter("mcchecker_analysis_violations_total").Add(int64(len(r.Violations)))
}

// Errors returns the violations with Severity == SevError.
func (r *Report) Errors() []*Violation {
	var out []*Violation
	for _, v := range r.Violations {
		if v.Severity == SevError {
			out = append(out, v)
		}
	}
	return out
}

// Warnings returns the violations with Severity == SevWarning.
func (r *Report) Warnings() []*Violation {
	var out []*Violation
	for _, v := range r.Violations {
		if v.Severity == SevWarning {
			out = append(out, v)
		}
	}
	return out
}

// Sort orders violations deterministically: by severity, class, then
// canonical signature, with the rank-sensitive key as the final
// tie-breaker for violations that share a signature (e.g. the same bug on
// two windows).
func (r *Report) Sort() {
	sort.Slice(r.Violations, func(i, j int) bool {
		a, b := r.Violations[i], r.Violations[j]
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if sa, sb := a.Signature(), b.Signature(); sa != sb {
			return sa < sb
		}
		return a.Key() < b.Key()
	})
}

// violationTextSize is about what one violation's text takes (1.1 KB on
// average over the amplified bug corpus). String sizes its buffer by it,
// so most reports render without regrowing the buffer.
const violationTextSize = 1024

func (r *Report) String() string {
	return string(r.appendText(make([]byte, 0, 128+violationTextSize*len(r.Violations))))
}

// appendText appends the report's text rendering to b: a summary line,
// each violation numbered, the analysis totals, and any degradations.
func (r *Report) appendText(b []byte) []byte {
	if len(r.Violations) == 0 {
		b = append(b, "MC-Checker: no memory consistency errors detected\n"...)
	} else {
		b = append(b, "MC-Checker: "...)
		b = strconv.AppendInt(b, int64(len(r.Violations)), 10)
		b = append(b, " memory consistency issue(s) detected\n"...)
		for i, v := range r.Violations {
			b = append(b, '#')
			b = strconv.AppendInt(b, int64(i+1), 10)
			b = append(b, ' ')
			b = v.appendText(b)
			b = append(b, '\n')
		}
	}
	b = append(b, "analyzed "...)
	b = strconv.AppendInt(b, int64(r.EventsAnalyzed), 10)
	b = append(b, " events, "...)
	b = strconv.AppendInt(b, int64(r.Regions), 10)
	b = append(b, " concurrent regions, "...)
	b = strconv.AppendInt(b, int64(r.EpochsChecked), 10)
	b = append(b, " epochs\n"...)
	if len(r.Degraded) > 0 {
		b = fmt.Appendf(b, "DEGRADED: this report is partial (%d issue(s) with the inputs):\n", len(r.Degraded))
		for _, d := range r.Degraded {
			b = fmt.Appendf(b, "  - %s\n", d)
		}
	}
	return b
}
