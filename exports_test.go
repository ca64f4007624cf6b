package mcchecker

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// guardedPkgs are the analysis packages whose exported API must have a
// caller outside _test.go files.
var guardedPkgs = []string{
	"repro/internal/trace",
	"repro/internal/memory",
	"repro/internal/model",
	"repro/internal/match",
	"repro/internal/dag",
	"repro/internal/core",
	"repro/internal/shadow",
	"repro/internal/profiler",
	"repro/internal/stream",
	"repro/internal/obs/tracing",
}

// exportExceptions are the exported identifiers of guardedPkgs that only
// tests reference and that stay, each with the reason. The methods of
// memory.Buffer are exempt as a whole (see bufferMethod).
var exportExceptions = map[string]string{
	"match.RunNaive":           "test reference: the naive matcher the differential tests hold match.Run to",
	"dag.BuildNaive":           "test reference: the naive happens-before index the differential tests hold dag.Build to",
	"dag.NaiveHB.Concurrent":   "test reference: the naive index's query the differential tests compare with DAG.Concurrent",
	"memory.DataMap.Tile":      "test reference: AppendTile onto nil, the form the tiling tests hold to a byte model",
	"trace.ReadTrace":          "test oracle: the strict reader the salvage tests and FuzzReadTrace hold ReadTraceSalvage to",
	"trace.ReadJSONL":          "test oracle: the JSON-lines decoder the codec tests compare the binary reader with",
	"trace.DecodePoolStats":    "test hook: the decoder's pool counters the allocation tests read",
	"tracing.NewDeterministic": "test hook: a recorder with logical ticks, so exporter tests compare bytes",
	"shadow.Store.Cells":       "invariant introspection: a vector's cell count the store tests check",
	"shadow.Store.Groups":      "invariant introspection: a vector's group count the store tests check",
	"shadow.Store.Members":     "invariant introspection: the member-arena size the store tests check",
	"shadow.Depot.Len":         "invariant introspection: the interned-site count the depot tests check",
	"dag.DAG.Segments":         "invariant introspection: a rank's clock-segment count the DAG tests check",
	"stream.Checker.Err":       "library API: the only way a caller sees ErrEmitAfterFinish, as Emit returns nothing",
}

// bufferMethod reports whether obj is a method of memory.Buffer: the loads
// and stores a simulated program makes, an API whether or not a bundled
// application calls each one.
func bufferMethod(obj types.Object) bool {
	named := recvNamed(obj)
	return named != nil && named.Obj().Pkg().Path() == "repro/internal/memory" && named.Obj().Name() == "Buffer"
}

// TestNoUnreferencedExports fails when an exported func, method, type, var
// or const of guardedPkgs is referenced only from _test.go files, or when
// an exception is stale. It type-checks the non-test files of this module
// and of bench/ from source, with the standard library loaded from the
// export data `go list -export` reports, so that every use of a module
// identifier resolves to the object its declaration defines.
func TestNoUnreferencedExports(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("needs the go command")
	}
	u := &universe{
		fset:    token.NewFileSet(),
		listed:  map[string]listedPkg{},
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		info:    &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
	var roots []string
	for _, dir := range []string{".", "bench"} {
		pkgs, err := goListDeps(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			u.listed[p.ImportPath] = p
			if !p.Standard {
				roots = append(roots, p.ImportPath)
			}
		}
	}
	u.std = importer.ForCompiler(u.fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := u.listed[path].Export; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	for _, path := range roots {
		if _, err := u.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	decls := map[types.Object]ast.Node{}
	inRecv := map[*ast.Ident]bool{}
	for _, path := range guardedPkgs {
		if u.files[path] == nil {
			t.Fatalf("%s was not type-checked", path)
		}
		for _, f := range u.files[path] {
			exportedDecls(f, u.info, decls, inRecv)
		}
	}
	// A declaration does not reference itself: uses inside its own body,
	// and in the receivers of its type's methods, do not count.
	used := map[types.Object]bool{}
	for id, obj := range u.info.Uses {
		obj = origin(obj)
		if node := decls[obj]; inRecv[id] || node != nil && node.Pos() <= id.Pos() && id.Pos() < node.End() {
			continue
		}
		used[obj] = true
	}
	ifaces := interfaces(u.checked)

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var bad []string
	for obj := range decls {
		name := qualified(obj)
		declared[name] = true
		live := used[obj] || implicitlyUsed(obj, ifaces)
		if _, ok := exportExceptions[name]; ok {
			if live {
				bad = append(bad, fmt.Sprintf("exception %s is referenced outside _test.go files; delete the exception", name))
			}
			continue
		}
		if live || bufferMethod(obj) {
			continue
		}
		pos := u.fset.Position(obj.Pos())
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
		bad = append(bad, fmt.Sprintf("%s:%d: %s has no reference outside _test.go files", pos.Filename, pos.Line, name))
	}
	for name := range exportExceptions {
		if !declared[name] {
			bad = append(bad, fmt.Sprintf("exception %s names no exported declaration", name))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// listedPkg is the part of `go list -json` output the guard reads.
type listedPkg struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// goListDeps runs `go list -export -deps` over every package of the module
// in dir, as internal/fix's loadToolchain does for the application package.
func goListDeps(dir string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(ee.Stderr))
		}
		return nil, fmt.Errorf("go list in %s: %w", dir, err)
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("reading go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// universe is a types.Importer that type-checks module packages from
// their non-test source files, once each, recording every use in info,
// and imports the standard library through std.
type universe struct {
	fset    *token.FileSet
	listed  map[string]listedPkg
	std     types.Importer
	checked map[string]*types.Package
	files   map[string][]*ast.File
	info    *types.Info
}

func (u *universe) Import(path string) (*types.Package, error) {
	p, ok := u.listed[path]
	if !ok || p.Standard {
		return u.std.Import(path)
	}
	if pkg := u.checked[path]; pkg != nil {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(u.fset, filepath.Join(p.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: u}).Check(path, u.fset, files, u.info)
	if err != nil {
		return nil, err
	}
	u.checked[path], u.files[path] = pkg, files
	return pkg, nil
}

// exportedDecls adds the exported package-level funcs, types, vars and
// consts and the exported methods declared in f to decls, each with its
// declaration, and the identifiers in f's method receivers to inRecv.
func exportedDecls(f *ast.File, info *types.Info, decls map[types.Object]ast.Node, inRecv map[*ast.Ident]bool) {
	add := func(id *ast.Ident, node ast.Node) {
		if id.IsExported() {
			decls[info.Defs[id]] = node
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name, d)
			if d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						inRecv[id] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s)
					}
				}
			}
		}
	}
}

// origin maps a method of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// recvNamed returns the named type a method is declared on, or nil.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
}

// qualified names obj as pkg.Name or pkg.Type.Method.
func qualified(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if named := recvNamed(obj); named != nil {
		name += named.Obj().Name() + "."
	}
	return name + obj.Name()
}

// interfaces collects the named interfaces of the checked packages and of
// every package they import, and error: a method can be called through
// any of them without being named, as fmt calls String.
func interfaces(checked map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	return out
}

// implicitlyUsed reports whether obj is a method through which a value of
// its receiver type satisfies one of ifaces, such as a String method or a
// method of mpi.Hook.
func implicitlyUsed(obj types.Object, ifaces []*types.Interface) bool {
	named := recvNamed(obj)
	if named == nil {
		return false
	}
	for _, it := range ifaces {
		if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == obj.Name() {
				return true
			}
		}
	}
	return false
}
