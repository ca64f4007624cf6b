package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/explore"
	"repro/internal/profiler"
)

// ExploreRow is one worker-pool configuration of the exploration
// throughput experiment: how fast the schedule sweep runs at a given
// `-jobs` width, and that the findings do not depend on it.
type ExploreRow struct {
	Jobs            int
	Schedules       int
	Elapsed         time.Duration
	SchedulesPerSec float64
	Distinct        int
	// Speedup is SchedulesPerSec relative to the first (jobs=1) row.
	Speedup float64
}

// ExploreThroughput sweeps the planted schedule-dependent bug
// (apps.ScheduleCases) with the seed sweep at each worker count in
// jobsList, reporting throughput and the deduplicated finding
// count. The distinct-violation column must be identical across rows —
// parallelism may only change speed, never results.
func ExploreThroughput(schedules int, jobsList []int) ([]ExploreRow, error) {
	bc := apps.ScheduleCases()[0]
	var rows []ExploreRow
	for _, jobs := range jobsList {
		res, err := explore.Explore(explore.Config{
			Runner: &explore.Runner{
				Body:  bc.Buggy,
				Ranks: bc.Ranks,
				Rel:   profiler.FromNames(bc.RelevantBuffers),
			},
			Schedules: schedules,
			Jobs:      jobs,
			Seed:      1,
		})
		if err != nil {
			return nil, fmt.Errorf("explore with %d jobs: %w", jobs, err)
		}
		row := ExploreRow{
			Jobs: jobs, Schedules: res.Schedules, Elapsed: res.Elapsed,
			SchedulesPerSec: res.SchedulesPerSec(), Distinct: res.Distinct(),
		}
		if len(rows) == 0 {
			row.Speedup = 1
		} else {
			row.Speedup = row.SchedulesPerSec / rows[0].SchedulesPerSec
		}
		rows = append(rows, row)
	}
	return rows, nil
}
