package fix

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
	"strings"
	"sync"
)

// Repairs are checked by the real toolchain: Typecheck reads the export
// data the compiler wrote for the packages an application file imports,
// and Repair compiles and runs the patched package. Both need a source
// checkout of this module and go on PATH; the module has no dependencies,
// so neither needs the network.

// appsPkg is the application package that repairs patch.
const appsPkg = "repro/internal/apps"

// toolchain is what one `go list -export -deps` of the application
// package reports: where the package lives, and the export data file the
// compiler wrote for it and for every package it imports.
type toolchain struct {
	root    string            // module root, where the go command runs
	appsDir string            // application package directory, relative to root
	export  map[string]string // import path -> export data file
}

// loadToolchain runs `go list` once per process.
var loadToolchain = sync.OnceValues(func() (*toolchain, error) {
	out, err := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Module", appsPkg).Output()
	if err != nil {
		return nil, fmt.Errorf("fix: go list %s (needs a source checkout and go on PATH): %w", appsPkg, cmdError(err))
	}
	tc := &toolchain{export: map[string]string{}}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir, Export string
			Module                  struct{ Dir string }
		}
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("fix: reading go list output: %w", err)
		}
		tc.export[p.ImportPath] = p.Export
		if p.ImportPath == appsPkg {
			tc.root = p.Module.Dir
			if tc.appsDir, err = filepath.Rel(p.Module.Dir, p.Dir); err != nil {
				return nil, err
			}
		}
	}
	return tc, nil
})

// cmdError replaces a failed command's exit status with what it printed
// on stderr, which for the go command is the compiler's message.
func cmdError(err error) error {
	var ee *exec.ExitError
	if errors.As(err, &ee) && len(ee.Stderr) > 0 {
		return errors.New(strings.TrimSpace(string(ee.Stderr)))
	}
	return err
}

// Typecheck type-checks one application source file as package apps
// against the compiler's export data for its imports, returning the first
// type error. It checks the file alone, so a clash with a declaration in
// another file of the package is left to the build.
func Typecheck(name string, src []byte) error {
	tc, err := loadToolchain()
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		return err
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := tc.export[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("fix: no export data for %q", path)
	})
	_, err = (&types.Config{Importer: imp}).Check(appsPkg, fset, []*ast.File{f}, nil)
	return err
}
