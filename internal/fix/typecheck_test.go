package fix

import "testing"

// TestTypecheckRejects pins the negative direction: sources using the
// API wrongly must fail, so the repair gate cannot pass vacuously.
func TestTypecheckRejects(t *testing.T) {
	bad := []string{
		"package apps\n\nimport \"repro/internal/mpi\"\n\nfunc Bad(p *mpi.Proc) { p.NoSuchMethod() }\n",
		"package apps\n\nimport \"repro/internal/mpi\"\n\nfunc Bad(w *mpi.Win) { w.Fence() }\n",
		"package apps\n\nimport \"nonexistent/pkg\"\n\nvar _ = pkg.X\n",
	}
	for i, src := range bad {
		if err := Typecheck("bad.go", []byte(src)); err == nil {
			t.Errorf("case %d: ill-typed source passed Typecheck", i)
		}
	}
	good := "package apps\n\nimport \"repro/internal/mpi\"\n\nfunc Good(w *mpi.Win) { w.Fence(mpi.AssertNone) }\n"
	if err := Typecheck("good.go", []byte(good)); err != nil {
		t.Errorf("well-typed source rejected: %v", err)
	}
}
