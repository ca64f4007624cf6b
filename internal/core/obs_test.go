package core

import (
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// TestAnalyzeWithObsRecordsPhases checks that an analysis run with a
// registry attached records every pipeline phase span and the analysis
// counters, and that the counters agree with the report.
func TestAnalyzeWithObsRecordsPhases(t *testing.T) {
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		win := p.Alloc(64, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(mpi.AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
		}
		w.Fence(mpi.AssertNone)
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.Obs = reg
	rep, err := AnalyzeWith(sink.Set(), opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	for _, phase := range []string{"model", "match", "dag", "epochs", "detect_intra", "detect_cross"} {
		sp := snap.Span(obs.PhaseSpanName, "phase", phase)
		if sp.Count != 1 {
			t.Errorf("phase %q span count = %d, want 1", phase, sp.Count)
		}
	}
	if got := snap.CounterValue("mcchecker_analysis_events_total"); got != int64(rep.EventsAnalyzed) {
		t.Errorf("events_total = %d, want %d", got, rep.EventsAnalyzed)
	}
	if got := snap.CounterValue("mcchecker_analysis_regions_total"); got != int64(rep.Regions) {
		t.Errorf("regions_total = %d, want %d", got, rep.Regions)
	}
	if got := snap.CounterValue("mcchecker_analysis_epochs_total"); got != int64(rep.EpochsChecked) {
		t.Errorf("epochs_total = %d, want %d", got, rep.EpochsChecked)
	}
	if got := snap.CounterValue("mcchecker_analysis_violations_total"); got != int64(len(rep.Violations)) {
		t.Errorf("violations_total = %d, want %d", got, len(rep.Violations))
	}
}

// TestReportStatsInJSON checks that an attached snapshot travels through
// the report's JSON rendering.
func TestReportStatsInJSON(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("mcchecker_analysis_events_total").Add(5)
	rep := &Report{Stats: reg.Snapshot()}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := `"mcchecker_analysis_events_total"`; !strings.Contains(string(data), want) {
		t.Errorf("JSON report missing stats section:\n%s", data)
	}
	// Without a snapshot the stats key is omitted entirely.
	plain, err := (&Report{}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), `"stats"`) {
		t.Errorf("stats key present without a snapshot:\n%s", plain)
	}
}
