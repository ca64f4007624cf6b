package experiments

import (
	"testing"

	"repro/internal/core"
)

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Spot-check the published cells.
	if rows[4][2] != "ERROR" { // Put × Store
		t.Errorf("Put×Store = %q", rows[4][2])
	}
	if rows[1][1] != "BOTH" { // Load × Load
		t.Errorf("Load×Load = %q", rows[1][1])
	}
}

func TestTable2AllDetected(t *testing.T) {
	rows, err := Table2(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Detected {
			t.Errorf("%s not detected", r.App)
		}
		if !r.FixedClean {
			t.Errorf("%s fixed variant not clean", r.App)
		}
		if r.Diagnosis == "" {
			t.Errorf("%s missing diagnosis", r.App)
		}
	}
}

func TestFig8SmallRun(t *testing.T) {
	rows, err := Fig8(4, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Native <= 0 || r.Profiled <= 0 || r.Full <= 0 {
			t.Errorf("%s: non-positive timings %+v", r.App, r)
		}
		if r.Stats.Total() == 0 {
			t.Errorf("%s: no events recorded", r.App)
		}
	}
}

func TestFig9SmallRun(t *testing.T) {
	rows, err := Fig9(64, []int{2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Strong scaling: per-rank load/store events must fall with more ranks.
	per2 := rows[0].LoadStoreEvents / int64(rows[0].Ranks)
	per4 := rows[1].LoadStoreEvents / int64(rows[1].Ranks)
	if per4 >= per2 {
		t.Errorf("per-rank load/store events did not fall: %d @2 ranks vs %d @4 ranks", per2, per4)
	}
}

func TestAblationAgreementAndScaling(t *testing.T) {
	rows, err := Ablation([]int{128, 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Agreement {
			t.Errorf("detectors disagree at %d ops", r.Ops)
		}
		if r.Violations == 0 {
			t.Errorf("synthetic region should contain the planted conflict")
		}
	}
	// The quadratic baseline must be slower at the larger size.
	last := rows[len(rows)-1]
	if last.Quadratic <= last.Linear {
		t.Logf("warning: quadratic (%v) not slower than linear (%v) at %d ops — acceptable at small sizes",
			last.Quadratic, last.Linear, last.Ops)
	}
}

func TestSyncCheckerComparison(t *testing.T) {
	rows, err := SyncCheckerComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.MCCheckerDetects {
			t.Errorf("MC-Checker missed %s", r.App)
		}
		within := r.ErrorLocation == "within an epoch"
		if within && !r.SyncCheckerDetects {
			t.Errorf("SyncChecker should detect within-epoch bug %s", r.App)
		}
		if !within && r.SyncCheckerDetects {
			t.Errorf("SyncChecker should miss across-process bug %s", r.App)
		}
	}
}

func TestSyntheticRegion(t *testing.T) {
	set := SyntheticRegion(8, 200)
	if set.Ranks() != 8 {
		t.Fatalf("ranks = %d", set.Ranks())
	}
	rep, err := core.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Errorf("synthetic region should contain exactly the planted conflict, got:\n%s", rep)
	}
}

// TestBenchShadowAgreement runs the shadow-vs-pairwise benchmark's
// byte-identity gate against the pairwise reference on its worst-case
// multi-origin region (sized down — the gate, not the timing, is what CI
// needs).
func TestBenchShadowAgreement(t *testing.T) {
	set := ShadowSyntheticRegion(8, 512)
	if set.Ranks() != 8 {
		t.Fatalf("ranks = %d", set.Ranks())
	}
	rep, err := CheckPairwise(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Error("multi-origin region should report its planted conflict")
	}
}
