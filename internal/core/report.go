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
	// from key() and Signature().
	Witness []WitnessStep

	// witnessFn lazily builds Witness: detectors attach a closure so the
	// chain is only reconstructed for violations that survive dedup (the
	// add sites sit on the detection hot paths). Resolved by Report.add.
	witnessFn func() []WitnessStep

	// Cached identity strings. Both are pure functions of fields fixed at
	// construction (never of Count), so they are computed once on first
	// use — key() and Signature() sit on the dedup and sort hot paths and
	// used to burn six fmt.Sprintf calls per invocation.
	dedupKey string
	sig      string
}

// key identifies a violation for deduplication: the same pair of source
// locations conflicting by the same rule is reported once with a count.
func (v *Violation) key() string {
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
// byte-identical to what key() would build from the events. The shadow
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

func (v *Violation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%s] %s\n", v.Severity, v.Class, v.Rule)
	fmt.Fprintf(&sb, "  (1) rank %d: %s at %s (%s)\n", v.A.Rank, v.A.Kind, v.A.Loc(), shortFunc(v.A.Func))
	fmt.Fprintf(&sb, "  (2) rank %d: %s at %s (%s)\n", v.B.Rank, v.B.Kind, v.B.Loc(), shortFunc(v.B.Func))
	if !v.Overlap.Empty() {
		fmt.Fprintf(&sb, "  overlapping bytes: %v", v.Overlap)
	} else {
		sb.WriteString("  no byte overlap required by this rule")
	}
	if v.Win != 0 || v.Class == AcrossProcesses {
		fmt.Fprintf(&sb, "; window %d", v.Win)
	}
	if v.Count > 1 {
		fmt.Fprintf(&sb, "; occurred %d times", v.Count)
	}
	if len(v.Witness) > 0 {
		sb.WriteByte('\n')
		sb.WriteString(witnessString(v.Witness))
	}
	fmt.Fprintf(&sb, "\n  hint: %s", v.Hint())
	return sb.String()
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
	if prev, ok := index[v.key()]; ok {
		prev.Count++
		return
	}
	v.Count = 1
	v.resolveWitness()
	index[v.key()] = v
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
		return a.key() < b.key()
	})
}

func (r *Report) String() string {
	var sb strings.Builder
	if len(r.Violations) == 0 {
		sb.WriteString("MC-Checker: no memory consistency errors detected\n")
	} else {
		fmt.Fprintf(&sb, "MC-Checker: %d memory consistency issue(s) detected\n", len(r.Violations))
		for i, v := range r.Violations {
			fmt.Fprintf(&sb, "#%d %s\n", i+1, v)
		}
	}
	fmt.Fprintf(&sb, "analyzed %d events, %d concurrent regions, %d epochs\n",
		r.EventsAnalyzed, r.Regions, r.EpochsChecked)
	if len(r.Degraded) > 0 {
		fmt.Fprintf(&sb, "DEGRADED: this report is partial (%d issue(s) with the inputs):\n", len(r.Degraded))
		for _, d := range r.Degraded {
			fmt.Fprintf(&sb, "  - %s\n", d)
		}
	}
	return sb.String()
}
