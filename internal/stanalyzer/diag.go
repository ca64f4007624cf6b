package stanalyzer

import (
	"encoding/json"
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
)

// Confidence grades a static diagnostic. The checker has no runtime
// information, so every finding carries how sure it is: High findings are
// backed by constant offsets that definitely overlap; Medium findings
// involve symbolic offsets or merged control flow; Low findings rest on
// patterns that are frequently intentional (polling flags).
type Confidence uint8

const (
	ConfLow Confidence = iota
	ConfMedium
	ConfHigh
)

func (c Confidence) String() string {
	switch c {
	case ConfHigh:
		return "high"
	case ConfMedium:
		return "medium"
	}
	return "low"
}

// ParseConfidence reads a confidence name ("low", "medium", "high").
func ParseConfidence(s string) (Confidence, error) {
	switch strings.ToLower(s) {
	case "low":
		return ConfLow, nil
	case "medium":
		return ConfMedium, nil
	case "high":
		return ConfHigh, nil
	}
	return ConfLow, fmt.Errorf("stanalyzer: unknown confidence %q (want low, medium, or high)", s)
}

// Kind names a static error pattern. Each kind mirrors a rule family of
// the dynamic analyzer (internal/core), so that static diagnostics can be
// cross-validated against dynamic core.Violation reports.
type Kind string

const (
	// KindGetOriginUse: a buffer that a pending Get (or the result buffer
	// of a fetching atomic) will write is loaded or stored before the
	// epoch completes the transfer — paper Figure 1.
	KindGetOriginUse Kind = "get-origin-use"
	// KindPutOriginStore: the origin buffer of a pending Put or
	// Accumulate is overwritten before the epoch closes — Figure 2a.
	KindPutOriginStore Kind = "put-origin-store"
	// KindEpochTargetConflict: two operations of one process target
	// overlapping window regions within a single epoch — Figure 2b/2c.
	KindEpochTargetConflict Kind = "epoch-target-conflict"
	// KindExposureAccess: local load/store of the exposed window buffer
	// inside a PSCW exposure epoch (Post..Wait) — §III-C.
	KindExposureAccess Kind = "exposure-access"
	// KindCrossLocalConflict: a local load/store of window memory can be
	// concurrent with a remote Put/Get/Accumulate to the same region in
	// the same synchronization phase — Figure 2d.
	KindCrossLocalConflict Kind = "cross-local-conflict"
	// KindCrossTargetConflict: incompatible RMA operations from
	// different processes can target the same window region in the same
	// synchronization phase (Table I).
	KindCrossTargetConflict Kind = "cross-target-conflict"
)

// Kinds returns every diagnostic kind in report order — the canonical
// list `stanalyzer -list-kinds` prints and the doc-drift test pins
// against the constant block above.
func Kinds() []Kind {
	return []Kind{
		KindGetOriginUse, KindPutOriginStore, KindEpochTargetConflict,
		KindExposureAccess, KindCrossLocalConflict, KindCrossTargetConflict,
	}
}

// Class maps the kind to the paper's error-location class, matching
// core.Violation.Class.
func (k Kind) Class() core.Class {
	switch k {
	case KindGetOriginUse, KindPutOriginStore, KindEpochTargetConflict:
		return core.WithinEpoch
	}
	return core.AcrossProcesses
}

// Fix returns the remediation hint for the kind, phrased like core.Hint.
func (k Kind) Fix() string {
	switch k {
	case KindGetOriginUse:
		return "close the epoch (unlock, fence, or flush) before using the destination buffer"
	case KindPutOriginStore:
		return "delay reuse of the origin buffer until the epoch closes, or use a fresh buffer per transfer"
	case KindEpochTargetConflict:
		return "separate the conflicting operations into different epochs, or use accumulate operations"
	case KindExposureAccess:
		return "move local accesses out of the Post..Wait exposure epoch"
	case KindCrossLocalConflict:
		return "separate local access and remote communication with a barrier, fence, or lock"
	case KindCrossTargetConflict:
		return "synchronize the competing origins, or replace the emulated read-modify-write with an atomic (Fetch_and_op / Compare_and_swap)"
	}
	return ""
}

// FixActionKind names one mechanical repair template of internal/fix.
// Unlike the free-text Fix hint, an action kind is a contract: the repair
// engine maps each kind to one AST rewrite and never parses prose.
type FixActionKind string

const (
	// FixInsertFlushAll: insert `win.FlushAll()` before the anchor so
	// every pending passive-target operation completes first.
	FixInsertFlushAll FixActionKind = "insert-flush-all"
	// FixInsertFlush: insert `win.Flush(target)` before the anchor,
	// completing the pending operations to that target.
	FixInsertFlush FixActionKind = "insert-flush"
	// FixWidenFlushLocal: rewrite the `FlushLocal(target)` between the
	// conflicting operations into a full `Flush(target)` — local
	// completion is not target completion.
	FixWidenFlushLocal FixActionKind = "widen-flush-local"
	// FixSplitEpoch: insert a collective `win.Fence(mpi.AssertNone)`
	// between the conflicting operations, splitting the fence epoch that
	// opened at Open into two.
	FixSplitEpoch FixActionKind = "split-epoch"
	// FixMoveAfterSync: move the flagged local access (with its variant
	// guard, if any) past the next synchronization statement.
	FixMoveAfterSync FixActionKind = "move-after-sync"
	// FixMoveOutOfExposure: move the flagged local access past the
	// `WaitEpoch` that closes the Post..Wait exposure epoch.
	FixMoveOutOfExposure FixActionKind = "move-out-of-exposure"
	// FixRewriteAccumulate: rewrite the plain `Put` at the anchor into an
	// `Accumulate` using Op — the reduction the conflicting
	// accumulate-family operation already uses — restoring Table I
	// compatibility.
	FixRewriteAccumulate FixActionKind = "rewrite-accumulate"
)

// FixAction is the machine-readable companion of a diagnostic's Fix
// hint: which repair template applies, where it anchors, and the
// expressions the rewrite needs. A nil action means the checker knows no
// mechanical repair for the finding.
type FixAction struct {
	Kind   FixActionKind
	Anchor token.Position // the flagged statement the template anchors on

	Win    string         // window variable spelling, for inserted calls
	Target string         // target-rank expression (insert-flush, widen-flush-local)
	Op     string         // reduction-op expression (rewrite-accumulate)
	Open   token.Position // epoch-opening statement (split-epoch)
}

// RepairTemplates lists the fix-action kinds the checker can attach to
// diagnostics of this kind, in preference order.
func (k Kind) RepairTemplates() []FixActionKind {
	switch k {
	case KindGetOriginUse:
		return []FixActionKind{FixInsertFlush, FixInsertFlushAll, FixSplitEpoch, FixMoveAfterSync}
	case KindPutOriginStore:
		return []FixActionKind{FixInsertFlush, FixInsertFlushAll, FixSplitEpoch, FixMoveAfterSync}
	case KindEpochTargetConflict:
		return []FixActionKind{FixWidenFlushLocal, FixInsertFlush, FixSplitEpoch}
	case KindExposureAccess:
		return []FixActionKind{FixMoveOutOfExposure}
	case KindCrossLocalConflict:
		return []FixActionKind{FixMoveAfterSync}
	case KindCrossTargetConflict:
		return []FixActionKind{FixRewriteAccumulate, FixSplitEpoch}
	}
	return nil
}

// Diagnostic is one static finding: the analogue of core.Violation for
// the compile-time checker.
type Diagnostic struct {
	Kind       Kind
	Confidence Confidence
	Class      core.Class

	// Pos is the flagged access (the later operation in program order);
	// Ref is the operation it conflicts with.
	Pos token.Position
	Ref token.Position

	Fn     string // enclosing function
	Win    string // window variable, if resolved
	Buffer string // runtime buffer name, if the allocation is tracked

	Message string
	Fix     string

	// Action is the structured repair the free-text Fix hint describes;
	// nil when no mechanical template applies.
	Action *FixAction

	// Ranks lists the statically-known target ranks of the involved
	// operations; the schedule explorer seeds its sweep from them.
	Ranks []int
}

// locString renders a position as base-file:line for stable reports.
func locString(p token.Position) string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func (d *Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: [%s/%s] %s: %s", locString(d.Pos), d.Kind, d.Confidence, d.Fn, d.Message)
	if d.Ref.IsValid() {
		fmt.Fprintf(&sb, " (with %s)", locString(d.Ref))
	}
	return sb.String()
}

// key identifies a diagnostic for deduplication (loop bodies are walked
// twice and report the same finding at the same positions).
func (d *Diagnostic) key() string {
	return fmt.Sprintf("%s|%s|%s|%s", d.Kind, locString(d.Pos), locString(d.Ref), d.Fn)
}

// MatchesViolation reports whether a dynamic violation confirms this
// diagnostic: the classes agree and at least one of the violation's two
// event locations coincides with the diagnostic's flagged positions.
// Trace events carry full runtime paths while parsed positions carry the
// analyzed file's path, so files compare by base name.
func (d *Diagnostic) MatchesViolation(v *core.Violation) bool {
	if d.Class != v.Class {
		return false
	}
	for _, ev := range []struct {
		file string
		line int
	}{{v.A.File, int(v.A.Line)}, {v.B.File, int(v.B.Line)}} {
		if ev.file == "" {
			continue
		}
		for _, p := range []token.Position{d.Pos, d.Ref} {
			if p.IsValid() && p.Line == ev.line && filepath.Base(p.Filename) == filepath.Base(ev.file) {
				return true
			}
		}
	}
	return false
}

// CheckReport is the static checker's output.
type CheckReport struct {
	Diags []Diagnostic

	// Analysis size, for the obs counters and -stats.
	FilesParsed     int
	FuncsChecked    int
	FuncsSummarized int

	// calls is the same-package callgraph (function name → callees),
	// used to scope diagnostics to one application's entry point.
	calls map[string][]string
}

// sortDiags orders diagnostics for stable output: by position, then kind.
func (r *CheckReport) sortDiags() {
	sort.Slice(r.Diags, func(i, j int) bool {
		a, b := &r.Diags[i], &r.Diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return locString(a.Ref) < locString(b.Ref)
	})
}

// Filter returns the diagnostics at or above the confidence threshold.
func (r *CheckReport) Filter(min Confidence) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Confidence >= min {
			out = append(out, d)
		}
	}
	return out
}

// Reachable returns the functions reachable from root over the
// same-package callgraph, including root itself.
func (r *CheckReport) Reachable(root string) map[string]bool {
	seen := map[string]bool{root: true}
	queue := []string{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, callee := range r.calls[cur] {
			if !seen[callee] {
				seen[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return seen
}

// ForFunctions returns the diagnostics whose enclosing function is in the
// set — used to scope a whole-package report to one app's entry point.
func (r *CheckReport) ForFunctions(fns map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if fns[d.Fn] {
			out = append(out, d)
		}
	}
	return out
}

func (r *CheckReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "static checker: %d diagnostic(s) in %d function(s)\n", len(r.Diags), r.FuncsChecked)
	sb.WriteString(RenderDiags(r.Diags))
	return sb.String()
}

// RenderDiags renders a diagnostic slice in the report's indented text
// format — used for filtered subsets and the golden report.
func RenderDiags(diags []Diagnostic) string {
	var sb strings.Builder
	for i := range diags {
		fmt.Fprintf(&sb, "  %s\n", diags[i].String())
		if fix := diags[i].Fix; fix != "" {
			fmt.Fprintf(&sb, "      fix: %s\n", fix)
		}
	}
	return sb.String()
}

// diagJSON is the JSON shape of one diagnostic.
type diagJSON struct {
	Kind       string         `json:"kind"`
	Confidence string         `json:"confidence"`
	Class      string         `json:"class"`
	Pos        string         `json:"pos"`
	Ref        string         `json:"ref,omitempty"`
	Fn         string         `json:"func"`
	Win        string         `json:"win,omitempty"`
	Buffer     string         `json:"buffer,omitempty"`
	Message    string         `json:"message"`
	Fix        string         `json:"fix,omitempty"`
	Action     *fixActionJSON `json:"action,omitempty"`
	Ranks      []int          `json:"ranks,omitempty"`
}

// fixActionJSON is the JSON shape of a structured repair action.
type fixActionJSON struct {
	Kind   string `json:"kind"`
	Anchor string `json:"anchor"`
	Win    string `json:"win,omitempty"`
	Target string `json:"target,omitempty"`
	Op     string `json:"op,omitempty"`
	Open   string `json:"open,omitempty"`
}

// MarshalJSON renders the report as a JSON array of diagnostics.
func (r *CheckReport) MarshalJSON() ([]byte, error) {
	return MarshalDiags(r.Diags)
}

// MarshalDiags renders a diagnostic slice (e.g. a filtered or app-scoped
// subset) as a JSON array.
func MarshalDiags(diags []Diagnostic) ([]byte, error) {
	out := make([]diagJSON, 0, len(diags))
	for i := range diags {
		d := &diags[i]
		j := diagJSON{
			Kind:       string(d.Kind),
			Confidence: d.Confidence.String(),
			Class:      d.Class.String(),
			Pos:        locString(d.Pos),
			Fn:         d.Fn,
			Win:        d.Win,
			Buffer:     d.Buffer,
			Message:    d.Message,
			Fix:        d.Fix,
			Ranks:      d.Ranks,
		}
		if d.Ref.IsValid() {
			j.Ref = locString(d.Ref)
		}
		if a := d.Action; a != nil {
			ja := &fixActionJSON{
				Kind: string(a.Kind), Anchor: locString(a.Anchor),
				Win: a.Win, Target: a.Target, Op: a.Op,
			}
			if a.Open.IsValid() {
				ja.Open = locString(a.Open)
			}
			j.Action = ja
		}
		out = append(out, j)
	}
	return json.Marshal(out)
}
