package stanalyzer

// conflicts.go: the static conflict rules. Byte footprints of local
// accesses and RMA transfers are computed as symbolic intervals (constant
// where the source is constant, bounded-below otherwise), and compared
// pairwise: within an epoch against the pending-operation sets the walk
// maintains, and across processes by matching events in the same
// synchronization phase under the SPMD assumption — every rank runs the
// same function, so a remote Put targeting window offset X can land in
// this rank's window while this rank accesses offset X locally.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// span is a symbolic byte interval: lo is the start (-1 unknown), min the
// guaranteed extent in bytes, max the largest possible extent (-1
// unbounded).
type span struct {
	lo  int64
	min int64
	max int64
}

const (
	ovDisjoint = iota
	ovMaybe
	ovDefinite
)

// overlap compares two spans: ovDefinite when the guaranteed intervals
// intersect, ovDisjoint when even the maximal intervals cannot, ovMaybe
// otherwise.
func overlap(a, b span) int {
	if a.lo >= 0 && b.lo >= 0 {
		if a.lo < b.lo+b.min && b.lo < a.lo+a.min {
			return ovDefinite
		}
		if a.max >= 0 && b.lo >= a.lo+a.max {
			return ovDisjoint
		}
		if b.max >= 0 && a.lo >= b.lo+b.max {
			return ovDisjoint
		}
	}
	return ovMaybe
}

// evalInt evaluates an integer expression from literals, recorded
// constants, and integer conversions.
func (w *walker) evalInt(e ast.Expr) (int64, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind == token.INT {
			n, err := strconv.ParseInt(strings.ReplaceAll(v.Value, "_", ""), 0, 64)
			return n, err == nil
		}
	case *ast.ParenExpr:
		return w.evalInt(v.X)
	case *ast.UnaryExpr:
		n, ok := w.evalInt(v.X)
		if !ok {
			return 0, false
		}
		switch v.Op {
		case token.SUB:
			return -n, true
		case token.ADD:
			return n, true
		}
	case *ast.BinaryExpr:
		l, lok := w.evalInt(v.X)
		r, rok := w.evalInt(v.Y)
		if !lok || !rok {
			return 0, false
		}
		switch v.Op {
		case token.ADD:
			return l + r, true
		case token.SUB:
			return l - r, true
		case token.MUL:
			return l * r, true
		case token.QUO:
			if r != 0 {
				return l / r, true
			}
		case token.REM:
			if r != 0 {
				return l % r, true
			}
		case token.SHL:
			return l << uint(r), true
		case token.SHR:
			return l >> uint(r), true
		}
	case *ast.Ident:
		// Inlined callee: a parameter evaluates as the caller's argument,
		// in the caller's environment.
		if w.subst != nil && w.outer != nil {
			if arg, ok := w.subst[v.Name]; ok {
				return w.outer.evalInt(arg)
			}
		}
		if n, ok := w.c.consts[scopedName(w.fnScope, v.Name)]; ok {
			return n, true
		}
		if n, ok := w.c.consts["pkg."+v.Name]; ok {
			return n, true
		}
	case *ast.CallExpr:
		// Integer conversions: uint64(x), int(x), ...
		if id, ok := v.Fun.(*ast.Ident); ok && len(v.Args) == 1 && intConversions[id.Name] {
			return w.evalInt(v.Args[0])
		}
	}
	return 0, false
}

var intConversions = map[string]bool{
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"uintptr": true, "byte": true, "rune": true,
}

// dtypeSize resolves the element size of a predefined MPI datatype
// expression (mpi.Float64 → 8); derived datatypes are unknown (0).
func dtypeSize(e ast.Expr) int64 {
	name := ""
	switch v := e.(type) {
	case *ast.SelectorExpr:
		name = v.Sel.Name
	case *ast.Ident:
		name = v.Name
	}
	switch name {
	case "Byte":
		return 1
	case "Int32", "Float32":
		return 4
	case "Int64", "Float64":
		return 8
	}
	return 0
}

// accInfo describes one memory.Buffer accessor: element size, direction,
// and how the accessed extent is determined. countArg is the index of an
// element-count argument; sizeArg of a byte-size argument; -1 for a
// single element; -2 when the extent is not statically visible (slice or
// raw arguments).
type accInfo struct {
	elem     int64
	write    bool
	countArg int
	sizeArg  int
}

var accessors = map[string]accInfo{
	"Uint8At":         {elem: 1, countArg: -1},
	"SetUint8":        {elem: 1, write: true, countArg: -1},
	"Int32At":         {elem: 4, countArg: -1},
	"SetInt32":        {elem: 4, write: true, countArg: -1},
	"Int64At":         {elem: 8, countArg: -1},
	"SetInt64":        {elem: 8, write: true, countArg: -1},
	"Float64At":       {elem: 8, countArg: -1},
	"SetFloat64":      {elem: 8, write: true, countArg: -1},
	"Float64SliceAt":  {elem: 8, countArg: 1},
	"SetFloat64Slice": {elem: 8, write: true, countArg: -2},
	"LoadBytes":       {elem: 1, sizeArg: 1, countArg: -3},
	"StoreBytes":      {elem: 1, write: true, countArg: -2},
	"Fill":            {elem: 1, write: true, sizeArg: 1, countArg: -3},
	"ReadRaw":         {elem: 1, countArg: -2},
	"WriteRaw":        {elem: 1, write: true, countArg: -2},
	"UpdateRaw":       {elem: 1, write: true, sizeArg: 1, countArg: -3},
}

// accessSpan computes the byte footprint of an accessor call. All
// accessors take the byte offset as their first argument.
func (w *walker) accessSpan(info accInfo, call *ast.CallExpr) span {
	sp := span{lo: -1, min: 1, max: -1}
	if len(call.Args) >= 1 {
		if off, ok := w.evalInt(call.Args[0]); ok && off >= 0 {
			sp.lo = off
		}
	}
	switch {
	case info.countArg == -1:
		sp.min, sp.max = info.elem, info.elem
	case info.countArg == -3 && info.sizeArg >= 0 && len(call.Args) > info.sizeArg:
		if size, ok := w.evalInt(call.Args[info.sizeArg]); ok && size > 0 {
			sp.min, sp.max = size, size
		}
	case info.countArg >= 0 && len(call.Args) > info.countArg:
		if n, ok := w.evalInt(call.Args[info.countArg]); ok && n > 0 {
			sp.min, sp.max = n*info.elem, n*info.elem
		} else {
			sp.min = info.elem // at least one element for the call to matter
		}
	}
	return sp
}

// bufArg names the argument positions describing one buffer region of an
// RMA call: buffer, byte offset, element count (-1 = single element), and
// datatype.
type bufArg struct {
	buf, off, count, typ int
}

// rmaShape describes the argument layout and memory semantics of one
// window RMA method.
type rmaShape struct {
	reads  []bufArg // regions MPI reads from local memory
	writes []bufArg // regions MPI writes to local memory

	target, disp, tCount, tType int // target-side arguments; tCount -1 = 1

	// opArg is the reduction-op argument index of accumulate-family
	// calls (0 = none); its source text feeds rewrite-accumulate actions.
	opArg int

	writesTarget bool
	readsTarget  bool
	accFamily    bool
}

var rmaShapes = map[string]rmaShape{
	"Put": {
		reads:  []bufArg{{0, 1, 2, 3}},
		target: 4, disp: 5, tCount: 6, tType: 7,
		writesTarget: true,
	},
	"Get": {
		writes: []bufArg{{0, 1, 2, 3}},
		target: 4, disp: 5, tCount: 6, tType: 7,
		readsTarget: true,
	},
	"Accumulate": {
		reads:  []bufArg{{0, 1, 2, 3}},
		target: 4, disp: 5, tCount: 6, tType: 7, opArg: 8,
		writesTarget: true, accFamily: true,
	},
	"GetAccumulate": {
		reads:  []bufArg{{0, 1, 2, 3}},
		writes: []bufArg{{4, 5, 6, 7}},
		target: 8, disp: 9, tCount: 10, tType: 11, opArg: 12,
		writesTarget: true, readsTarget: true, accFamily: true,
	},
	"FetchAndOp": {
		reads:  []bufArg{{0, 1, -1, 6}},
		writes: []bufArg{{2, 3, -1, 6}},
		target: 4, disp: 5, tCount: -1, tType: 6, opArg: 7,
		writesTarget: true, readsTarget: true, accFamily: true,
	},
	"CompareAndSwap": {
		reads:  []bufArg{{0, 1, -1, 8}, {2, 3, -1, 8}},
		writes: []bufArg{{4, 5, -1, 8}},
		target: 6, disp: 7, tCount: -1, tType: 8,
		writesTarget: true, readsTarget: true, accFamily: true,
	},
}

// bufSpan computes the byte footprint of one RMA buffer region.
func (w *walker) bufSpan(ba bufArg, call *ast.CallExpr) span {
	sp := span{lo: -1, min: 1, max: -1}
	if len(call.Args) > ba.off {
		if off, ok := w.evalInt(call.Args[ba.off]); ok && off >= 0 {
			sp.lo = off
		}
	}
	elem := int64(0)
	if ba.typ >= 0 && len(call.Args) > ba.typ {
		elem = dtypeSize(call.Args[ba.typ])
	}
	count, countKnown := int64(1), ba.count == -1
	if ba.count >= 0 && len(call.Args) > ba.count {
		count, countKnown = w.evalInt(call.Args[ba.count])
	}
	if elem > 0 {
		if countKnown && count > 0 {
			sp.min, sp.max = count*elem, count*elem
		} else {
			sp.min = elem
		}
	}
	return sp
}

// rmaCall records an RMA operation: its pending-op joins the window's
// innermost open epoch (checking the within-epoch target rule on the
// way), and an event joins the cross-process phase matching.
func (w *walker) rmaCall(info *winInfo, name string, call *ast.CallExpr) {
	shape := rmaShapes[name]
	op := &pendingOp{
		call: name, pos: call.Pos(), winKey: info.key,
		writesTarget: shape.writesTarget, readsTarget: shape.readsTarget, accFamily: shape.accFamily,
	}
	if len(call.Args) > shape.target {
		t := call.Args[shape.target]
		op.targetText = exprText(t)
		if v, ok := w.evalInt(t); ok {
			val := v
			op.targetVal = &val
		}
	}
	op.tgtSpan = w.targetSpan(info, shape, call)
	for _, ba := range shape.reads {
		if u, ok := w.rmaBufUse(ba, call); ok {
			op.reads = append(op.reads, u)
		}
	}
	for _, ba := range shape.writes {
		if u, ok := w.rmaBufUse(ba, call); ok {
			op.writes = append(op.writes, u)
		}
	}

	ep := w.currentEpoch(info.key)
	if ep != nil {
		w.checkEpochTarget(info, ep, op)
		ep.ops = append(ep.ops, op)
	}

	ev := rmaEvent{
		call: name, pos: op.pos, winKey: info.key,
		targetText: op.targetText, targetVal: op.targetVal,
		tgtSpan: op.tgtSpan, phase: w.st.phase, fuzzy: w.st.phaseFuzzy,
		rankGuard:    w.rankGuard(),
		writesTarget: op.writesTarget, readsTarget: op.readsTarget, accFamily: op.accFamily,
	}
	if shape.accFamily && shape.opArg > 0 && len(call.Args) > shape.opArg {
		ev.accOp = exprText(call.Args[shape.opArg])
	}
	if ep != nil {
		ev.inEpoch, ev.epoch, ev.epochOpen = true, ep.kind, ep.openPos
	}
	w.rma = append(w.rma, ev)
}

func (w *walker) rmaBufUse(ba bufArg, call *ast.CallExpr) (bufUse, bool) {
	if len(call.Args) <= ba.buf {
		return bufUse{}, false
	}
	id := baseIdent(call.Args[ba.buf])
	if id == nil {
		return bufUse{}, false
	}
	return bufUse{key: w.resolveKey(id.Name), sp: w.bufSpan(ba, call)}, true
}

// targetSpan computes the byte footprint in the target window:
// displacement times displacement unit, extended by the transfer size.
func (w *walker) targetSpan(info *winInfo, shape rmaShape, call *ast.CallExpr) span {
	sp := span{lo: -1, min: 1, max: -1}
	if len(call.Args) > shape.disp {
		if disp, ok := w.evalInt(call.Args[shape.disp]); ok && disp >= 0 {
			if info.dispUnit > 0 {
				sp.lo = disp * info.dispUnit
			} else if disp == 0 {
				sp.lo = 0
			}
		}
	}
	elem := int64(0)
	if shape.tType >= 0 && len(call.Args) > shape.tType {
		elem = dtypeSize(call.Args[shape.tType])
	}
	count, countKnown := int64(1), shape.tCount == -1
	if shape.tCount >= 0 && len(call.Args) > shape.tCount {
		count, countKnown = w.evalInt(call.Args[shape.tCount])
	}
	if elem > 0 {
		if countKnown && count > 0 {
			sp.min, sp.max = count*elem, count*elem
		} else {
			sp.min = elem
		}
	}
	return sp
}

// sameTarget decides whether two operations can address the same target
// rank: constant ranks compare exactly; otherwise only identical source
// spellings are considered the same (distinct expressions like `left` and
// `right` coincide only under communicator wraparound, which would drown
// the report in noise).
func sameTarget(aText string, aVal *int64, bText string, bVal *int64) bool {
	if aVal != nil && bVal != nil {
		return *aVal == *bVal
	}
	return aText == bText
}

// checkEpochTarget flags incompatible same-epoch operations whose target
// regions definitely overlap (paper Figure 2b/2c). Symbolic maybes are
// left to the cross-process phase rule to keep the within-epoch rule
// precise.
func (w *walker) checkEpochTarget(info *winInfo, ep *epochState, op *pendingOp) {
	for _, prev := range ep.ops {
		if prev.pos == op.pos {
			continue // the same statement observed again by a loop re-walk
		}
		if compatibleOps(prev, op) {
			continue
		}
		if !sameTarget(prev.targetText, prev.targetVal, op.targetText, op.targetVal) {
			continue
		}
		if overlap(prev.tgtSpan, op.tgtSpan) != ovDefinite {
			continue
		}
		conf := ConfHigh
		if prev.merged {
			conf = ConfMedium
		}
		anchor := w.c.fset.Position(op.pos)
		var act *FixAction
		switch {
		case ep.kind == epFence:
			act = &FixAction{Kind: FixSplitEpoch, Anchor: anchor, Win: info.text,
				Open: w.c.fset.Position(ep.openPos)}
		case prev.localDone:
			act = &FixAction{Kind: FixWidenFlushLocal, Anchor: anchor, Win: info.text,
				Target: op.targetText}
		case ep.kind == epLock || ep.kind == epLockAll:
			act = &FixAction{Kind: FixInsertFlush, Anchor: anchor, Win: info.text,
				Target: op.targetText}
		}
		w.c.addDiag(Diagnostic{
			Kind: KindEpochTargetConflict, Confidence: conf, Class: KindEpochTargetConflict.Class(),
			Pos: anchor, Ref: w.c.fset.Position(prev.pos),
			Fn: w.fnScope, Win: info.text, Buffer: info.bufName,
			Message: fmt.Sprintf("%s and %s to overlapping regions of target %s within one %s epoch",
				prev.call, op.call, op.targetText, ep.kind),
			Fix:    KindEpochTargetConflict.Fix(),
			Action: act,
			Ranks:  constRanks(prev.targetVal, op.targetVal),
		})
	}
}

// compatibleOps mirrors the dynamic analyzer's Table I compatibility:
// concurrent reads agree, and accumulate-family operations are atomic
// with respect to each other.
func compatibleOps(a, b *pendingOp) bool {
	if !a.writesTarget && !b.writesTarget {
		return true
	}
	if a.accFamily && b.accFamily {
		return true
	}
	return false
}

// crossTargetAction plans the repair for a cross-target conflict. A plain
// Put racing an accumulate-family operation becomes an Accumulate with
// the same reduction op (Table I makes same-family operations
// compatible); two incompatible operations issued in one fence epoch are
// separated by an extra collective fence. Everything else has no
// single-edit mechanical repair.
func crossTargetAction(w *walker, a, b *rmaEvent, info *winInfo) *FixAction {
	if a.accFamily != b.accFamily {
		plain, acc := a, b
		if a.accFamily {
			plain, acc = b, a
		}
		if plain.call == "Put" && acc.accOp != "" {
			return &FixAction{Kind: FixRewriteAccumulate,
				Anchor: w.c.fset.Position(plain.pos), Op: acc.accOp}
		}
		return nil
	}
	if info != nil && a.inEpoch && b.inEpoch &&
		a.epoch == epFence && b.epoch == epFence && a.epochOpen == b.epochOpen {
		return &FixAction{Kind: FixSplitEpoch, Anchor: w.c.fset.Position(b.pos),
			Win: info.text, Open: w.c.fset.Position(a.epochOpen)}
	}
	return nil
}

func constRanks(vals ...*int64) []int {
	var out []int
	seen := map[int]bool{}
	for _, v := range vals {
		if v != nil && !seen[int(*v)] {
			seen[int(*v)] = true
			out = append(out, int(*v))
		}
	}
	return out
}

// localAccess handles one buffer accessor call: it is checked against
// every pending operation of every open epoch (the within-epoch rules),
// against open exposure epochs, and recorded for the phase rules.
func (w *walker) localAccess(bufKey, name string, call *ast.CallExpr) {
	info := accessors[name]
	sp := w.accessSpan(info, call)
	verb := "load"
	if info.write {
		verb = "store"
	}
	pos := call.Pos()

	for _, ep := range w.st.epochs {
		for _, op := range ep.ops {
			if op.localDone {
				continue
			}
			for _, u := range op.writes {
				if u.key != bufKey {
					continue
				}
				if ov := overlap(u.sp, sp); ov != ovDisjoint {
					w.pendingDiag(KindGetOriginUse, verb, ep, op, pos, bufKey, ov,
						fmt.Sprintf("local %s overlaps the destination buffer of a pending %s; the transfer completes only when the %s epoch closes",
							verb, op.call, ep.kind))
				}
			}
			if !info.write {
				continue
			}
			for _, u := range op.reads {
				if u.key != bufKey {
					continue
				}
				if ov := overlap(u.sp, sp); ov != ovDisjoint {
					w.pendingDiag(KindPutOriginStore, verb, ep, op, pos, bufKey, ov,
						fmt.Sprintf("local store overlaps the origin buffer of a pending %s; the in-flight transfer may send the new value", op.call))
				}
			}
		}
	}

	ev := localEvent{
		bufKey: bufKey, write: info.write, sp: sp,
		phase: w.st.phase, fuzzy: w.st.phaseFuzzy,
		rankGuard: w.rankGuard(), pos: pos,
	}
	if exp := w.exposureEpoch(bufKey); exp != nil {
		ev.inExposure = exp.key
	}
	w.local = append(w.local, ev)
}

// winText recovers the source spelling of the window a pending operation
// belongs to, for repair actions that insert window method calls.
func (w *walker) winText(winKey string) string {
	for _, info := range w.wins {
		if info.key == winKey {
			return info.text
		}
	}
	return ""
}

func (w *walker) pendingDiag(kind Kind, verb string, ep *epochState, op *pendingOp, pos token.Pos, bufKey string, ov int, msg string) {
	conf := ConfHigh
	if ov == ovMaybe || op.merged {
		conf = ConfMedium
	}
	anchor := w.c.fset.Position(pos)
	var act *FixAction
	if win := w.winText(op.winKey); win != "" {
		switch ep.kind {
		case epLockAll:
			act = &FixAction{Kind: FixInsertFlushAll, Anchor: anchor, Win: win}
		case epLock:
			act = &FixAction{Kind: FixInsertFlush, Anchor: anchor, Win: win, Target: op.targetText}
		case epFence:
			act = &FixAction{Kind: FixSplitEpoch, Anchor: anchor, Win: win,
				Open: w.c.fset.Position(ep.openPos)}
		case epAccess:
			act = &FixAction{Kind: FixMoveAfterSync, Anchor: anchor, Win: win}
		}
	}
	w.c.addDiag(Diagnostic{
		Kind: kind, Confidence: conf, Class: kind.Class(),
		Pos: anchor, Ref: w.c.fset.Position(op.pos),
		Fn: w.fnScope, Buffer: w.c.allocNames[bufKey],
		Message: msg, Fix: kind.Fix(),
		Action: act,
		Ranks:  constRanks(op.targetVal),
	})
}

// finalize runs the cross-process phase rules over the events of one
// fully walked function: under the SPMD assumption, two events can be
// concurrent exactly when they fall in the same synchronization phase
// (barriers and fences order phases globally; locks do not).
func (w *walker) finalize() {
	winByKey := map[string]*winInfo{}
	winByBuf := map[string]*winInfo{}
	for _, info := range w.wins {
		winByKey[info.key] = info
		winByBuf[info.bufKey] = info
	}

	// Exposure-epoch accesses (PSCW): any local access to the exposed
	// buffer races with whatever a started peer puts, high-confidence
	// when this very function issues same-phase writes to the window.
	for _, l := range w.local {
		if l.inExposure == "" {
			continue
		}
		info := winByKey[l.inExposure]
		verb := "load"
		if l.write {
			verb = "store"
		}
		d := Diagnostic{
			Kind: KindExposureAccess, Confidence: ConfMedium, Class: KindExposureAccess.Class(),
			Pos: w.c.fset.Position(l.pos), Fn: w.fnScope,
			Message: fmt.Sprintf("local %s of the exposed window buffer inside a Post..Wait exposure epoch", verb),
			Fix:     KindExposureAccess.Fix(),
		}
		d.Action = &FixAction{Kind: FixMoveOutOfExposure, Anchor: d.Pos}
		if info != nil {
			d.Win, d.Buffer = info.text, info.bufName
			d.Action.Win = info.text
		}
		for _, r := range w.rma {
			if r.winKey == l.inExposure && r.phase == l.phase && r.writesTarget {
				d.Confidence = ConfHigh
				d.Ref = w.c.fset.Position(r.pos)
				d.Ranks = constRanks(r.targetVal)
				break
			}
		}
		if l.fuzzy && d.Confidence > ConfMedium {
			d.Confidence = ConfMedium
		}
		w.c.addDiag(d)
	}

	// Local access vs remote RMA in the same phase (paper Figure 2d).
	for i := range w.local {
		l := &w.local[i]
		info := winByBuf[l.bufKey]
		if info == nil {
			continue
		}
		for j := range w.rma {
			r := &w.rma[j]
			if r.winKey != info.key || r.phase != l.phase {
				continue
			}
			if l.rankGuard != "" && l.rankGuard == r.rankGuard {
				continue // same rank-exclusive branch: program-ordered
			}
			if !l.write && !r.writesTarget {
				continue // concurrent reads agree
			}
			ov := overlap(l.sp, r.tgtSpan)
			if ov == ovDisjoint {
				continue
			}
			conf := ConfHigh
			if ov == ovMaybe || l.fuzzy || r.fuzzy {
				conf = ConfMedium
			}
			if !r.writesTarget && conf > ConfMedium {
				// A remote read racing a local store is the polling-flag
				// pattern — frequently ordered by application logic the
				// checker cannot see; needs dynamic confirmation.
				conf = ConfMedium
			}
			verb := "load"
			if l.write {
				verb = "store"
			}
			anchor := w.c.fset.Position(l.pos)
			w.c.addDiag(Diagnostic{
				Kind: KindCrossLocalConflict, Confidence: conf, Class: KindCrossLocalConflict.Class(),
				Pos: anchor, Ref: w.c.fset.Position(r.pos),
				Fn: w.fnScope, Win: info.text, Buffer: info.bufName,
				Message: fmt.Sprintf("local %s of the window buffer can be concurrent with a remote %s targeting the same region in this synchronization phase",
					verb, r.call),
				Fix:    KindCrossLocalConflict.Fix(),
				Action: &FixAction{Kind: FixMoveAfterSync, Anchor: anchor, Win: info.text},
				Ranks:  constRanks(r.targetVal),
			})
		}
	}

	// RMA vs RMA from different origins in the same phase (Table I).
	for i := range w.rma {
		for j := i + 1; j < len(w.rma); j++ {
			a, b := &w.rma[i], &w.rma[j]
			if a.winKey != b.winKey || a.phase != b.phase || a.pos == b.pos {
				continue
			}
			if (!a.writesTarget && !b.writesTarget) || (a.accFamily && b.accFamily) {
				continue
			}
			if !sameTarget(a.targetText, a.targetVal, b.targetText, b.targetVal) {
				continue
			}
			if a.rankGuard != "" && a.rankGuard == b.rankGuard {
				continue
			}
			ov := overlap(a.tgtSpan, b.tgtSpan)
			if ov == ovDisjoint {
				continue
			}
			conf := ConfMedium
			if ov == ovDefinite && a.targetVal != nil && b.targetVal != nil && !a.fuzzy && !b.fuzzy {
				conf = ConfHigh
			}
			info := winByKey[a.winKey]
			d := Diagnostic{
				Kind: KindCrossTargetConflict, Confidence: conf, Class: KindCrossTargetConflict.Class(),
				Pos: w.c.fset.Position(b.pos), Ref: w.c.fset.Position(a.pos),
				Fn: w.fnScope,
				Message: fmt.Sprintf("concurrent %s and %s from different processes can target overlapping regions of rank %s in this synchronization phase",
					a.call, b.call, a.targetText),
				Fix:   KindCrossTargetConflict.Fix(),
				Ranks: constRanks(a.targetVal, b.targetVal),
			}
			if info != nil {
				d.Win, d.Buffer = info.text, info.bufName
			}
			d.Action = crossTargetAction(w, a, b, info)
			w.c.addDiag(d)
		}
	}
}
