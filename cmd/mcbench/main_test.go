package main

import (
	"errors"
	"flag"
	"go/parser"
	"go/token"
	"io"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestExpNames pins the -exp contract without running an experiment:
// every listed name parses, the deleted bench, corpus and phases and any
// unknown name are rejected, and the -h text and the package usage
// comment name exactly the listed experiments.
func TestExpNames(t *testing.T) {
	names := expNames()
	for _, name := range names {
		o, err := parseFlags([]string{"-exp", name}, io.Discard)
		if err != nil {
			t.Errorf("-exp %s rejected: %v", name, err)
		} else if o.exp != name {
			t.Errorf("-exp %s parsed as %q", name, o.exp)
		}
	}
	for _, name := range []string{"bench", "corpus", "phases", "bogus", ""} {
		var stderr strings.Builder
		if _, err := parseFlags([]string{"-exp", name}, &stderr); err == nil {
			t.Errorf("-exp %q accepted", name)
		} else if !strings.Contains(stderr.String(), strings.Join(names, "|")) {
			t.Errorf("-exp %q: stderr does not list the valid names:\n%s", name, stderr.String())
		}
	}

	var help strings.Builder
	if _, err := parseFlags([]string{"-h"}, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(help.String(), "experiment: "+strings.Join(names, "|")) {
		t.Errorf("-h does not list every experiment %v:\n%s", names, help.String())
	}

	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile(`mcbench -exp (\S+)`).FindAllStringSubmatch(f.Doc.Text(), -1) {
		documented = append(documented, m[1])
	}
	if !slices.Equal(documented, names) {
		t.Errorf("package usage comment lists %v, want %v", documented, names)
	}
}
