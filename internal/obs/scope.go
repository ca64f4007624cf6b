package obs

import (
	"context"
	"fmt"

	"repro/internal/obs/tracing"
)

// PhaseSpanName is the span family under which the pipeline phases record
// their wall time, one sample per phase label: model, match, dag, epochs,
// detect_intra, detect_cross.
const PhaseSpanName = "mcchecker_phase_seconds"

// Scope is the one configuration value the offline pipeline hands from
// stage to stage: the trace directory readers take it and the analyzer's
// options embed it. Each field may be nil; the zero Scope never cancels
// and records nothing.
type Scope struct {
	// Ctx, when non-nil, cancels the stage cooperatively: it is checked
	// before each rank file decodes, between phases and between
	// per-epoch / per-region detection scopes. This is how a serving
	// watchdog reclaims a worker from a stuck or oversized job.
	Ctx context.Context

	// Obs, when non-nil, receives per-phase wall-time spans, codec
	// metrics and analysis volume counters.
	Obs *Registry

	// Trace, when non-nil, records the pipeline's causal timeline: one
	// span per phase on the "pipeline" track and one span per unit of
	// work (rank decode, epoch check, region check) on the per-stage
	// tracks.
	Trace *tracing.Recorder
}

// Err is Ctx.Err, with a nil Ctx never canceled.
func (s Scope) Err() error {
	if s.Ctx == nil {
		return nil
	}
	return s.Ctx.Err()
}

// Phase runs f as the named pipeline phase: it checks Ctx first, then
// brackets f with a PhaseSpanName span labeled phase=name on Obs and a
// span on Trace's "pipeline" track.
func (s Scope) Phase(name string, f func() error) error {
	if err := s.Err(); err != nil {
		return fmt.Errorf("analysis canceled: %w", err)
	}
	sp := s.Obs.StartSpan(PhaseSpanName, "phase", name)
	psp := s.Trace.Start("pipeline", "main", name)
	err := f()
	psp.End()
	sp.End()
	return err
}
