// Package fix is the static-analysis-driven repair engine: it consumes
// stanalyzer diagnostics carrying structured FixActions and rewrites the
// application source with one repair template per action kind, iterating
// until the scoped diagnostics drain. Every patch is then proven, not
// trusted: the patched program is re-type-checked, re-analyzed statically,
// compiled by the Go toolchain, and run under the dynamic analyzer and a
// schedule-exploration sweep.
package fix

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"sort"
)

// edit is one byte-range replacement of the source: the half-open range
// [start, end) is replaced by text. Insertions use start == end.
type edit struct {
	start, end int
	text       string
}

// applyEdits applies non-overlapping edits to src. Edits are applied in
// descending start order so earlier offsets stay valid.
func applyEdits(src []byte, edits []edit) ([]byte, error) {
	sorted := append([]edit(nil), edits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start > sorted[j].start })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].end > sorted[i-1].start {
			return nil, fmt.Errorf("fix: overlapping edits at %d and %d", sorted[i].start, sorted[i-1].start)
		}
	}
	out := append([]byte(nil), src...)
	for _, e := range sorted {
		if e.start < 0 || e.end > len(out) || e.start > e.end {
			return nil, fmt.Errorf("fix: edit range [%d, %d) outside source of %d bytes", e.start, e.end, len(out))
		}
		out = append(out[:e.start], append([]byte(e.text), out[e.end:]...)...)
	}
	return out, nil
}

// gofmt formats patched source, normalizing the indentation of inserted
// and moved lines.
func gofmt(src []byte) ([]byte, error) { return format.Source(src) }

// parsed bundles one parsed file with its fileset and raw source — the
// working state of a repair iteration.
type parsed struct {
	fset *token.FileSet
	file *ast.File
	src  []byte
	name string
}

func parseSource(name string, src []byte) (*parsed, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		return nil, err
	}
	return &parsed{fset: fset, file: f, src: src, name: name}, nil
}

// offsetOf translates a node position into a byte offset of src.
func (p *parsed) offsetOf(pos token.Pos) int { return p.fset.Position(pos).Offset }

// nodePath returns the chain of nodes containing the byte offset,
// outermost first. Offsets sit inside a node when Pos <= off < End.
func (p *parsed) nodePath(off int) []ast.Node {
	var path []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if p.offsetOf(n.Pos()) <= off && off < p.offsetOf(n.End()) {
			path = append(path, n)
			return true
		}
		return false
	}
	ast.Inspect(p.file, visit)
	return path
}

// stmtAt returns the innermost statement containing the offset, or nil.
func (p *parsed) stmtAt(off int) ast.Stmt {
	path := p.nodePath(off)
	for i := len(path) - 1; i >= 0; i-- {
		if s, ok := path[i].(ast.Stmt); ok {
			if _, isBlock := s.(*ast.BlockStmt); !isBlock {
				return s
			}
		}
	}
	return nil
}

// stmtAncestors returns the statement chain containing the offset,
// outermost first, excluding plain blocks.
func (p *parsed) stmtAncestors(off int) []ast.Stmt {
	var out []ast.Stmt
	for _, n := range p.nodePath(off) {
		if s, ok := n.(ast.Stmt); ok {
			if _, isBlock := s.(*ast.BlockStmt); !isBlock {
				out = append(out, s)
			}
		}
	}
	return out
}

// enclosingBlock returns the innermost block statement strictly containing
// the statement (by identity), or nil.
func (p *parsed) enclosingBlock(s ast.Stmt) *ast.BlockStmt {
	off := p.offsetOf(s.Pos())
	var best *ast.BlockStmt
	for _, n := range p.nodePath(off) {
		if b, ok := n.(*ast.BlockStmt); ok {
			for _, in := range b.List {
				if in == s {
					best = b
				}
			}
		}
	}
	return best
}

// exprText returns the source spelling of an expression.
func (p *parsed) exprText(e ast.Expr) string {
	return string(p.src[p.offsetOf(e.Pos()):p.offsetOf(e.End())])
}

// lineStart returns the offset of the first byte of the line containing off.
func lineStart(src []byte, off int) int {
	for off > 0 && src[off-1] != '\n' {
		off--
	}
	return off
}

// lineEnd returns the offset one past the newline of the line containing
// off (or len(src) for an unterminated last line), so that the slice
// [lineStart, lineEnd) is the whole line including trailing comments.
func lineEnd(src []byte, off int) int {
	for off < len(src) && src[off] != '\n' {
		off++
	}
	if off < len(src) {
		off++
	}
	return off
}

// stmtLines returns the byte range covering every full line a statement
// spans, including a trailing same-line comment.
func (p *parsed) stmtLines(s ast.Stmt) (start, end int) {
	start = lineStart(p.src, p.offsetOf(s.Pos()))
	end = lineEnd(p.src, p.offsetOf(s.End())-1)
	return start, end
}
