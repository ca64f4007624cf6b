package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layers are the spans of the traced phase, in pipeline order; each gives
// a <layer>_ms and a <layer>_share metric.
var layers = []string{
	"mpi.run", "profiler.run", "trace.write",
	"trace.read", "model.build", "match.run", "dag.build", "core.epochs",
	"core.detect_intra", "core.detect_cross", "core.render",
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (sorted[i+1]-sorted[i])*(pos-float64(i))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEnd computes the metrics a user of the checker sees.
func endToEnd(b *bench, ph *timedPhase) map[string]metric {
	jobs := make([]float64, len(ph.times))
	for i, t := range ph.times {
		jobs[i] = millis(t)
	}
	sort.Float64s(jobs)
	setup := make([]float64, len(b.setup))
	for i, t := range b.setup {
		setup[i] = t.Seconds()
	}
	sort.Float64s(setup)
	peaks := append([]float64(nil), ph.peaks...)
	sort.Float64s(peaks)
	return map[string]metric{
		"setup_s":          {quantile(setup, 0.5), "s"},
		"events_per_s":     {float64(ph.events) / (sum(jobs) / 1000), "1/s"},
		"job_ms_p50":       {quantile(jobs, 0.5), "ms"},
		"job_ms_p90":       {quantile(jobs, 0.9), "ms"},
		"alloc_mb_per_job": {float64(ph.alloc) / 1e6 / float64(len(jobs)), "MB"},
		"peak_rss_mb":      {quantile(peaks, 0.5), "MB"},
	}
}

// resetPeakRSS restarts the process's peak resident set from its current
// resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSS is the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks reads the machine's CPU time counters from /proc/stat: the
// time the host took from this machine's virtual CPUs (steal) and the
// total.
func cpuTicks() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		if i < 8 { // guest time is already counted in user and nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// perLayer computes the per-layer metrics from the traced phase. A span's
// self time is its duration minus its child spans'; a layer's share is
// its mean self time per call over the mean traced job time.
func perLayer(b *bench, ph *timedPhase, tp *tracedPhase) map[string]metric {
	list := tp.spans.list
	children := make([]time.Duration, len(list))
	for _, sp := range list {
		if sp.parent >= 0 {
			children[sp.parent] += sp.end - sp.start
		}
	}
	self := map[string][]float64{}
	var jobTime, layerTime time.Duration
	jobs := 0
	native := map[int]time.Duration{} // by production, for the profiler's overhead
	var overhead []float64
	for i, sp := range list {
		d := sp.end - sp.start
		self[sp.name] = append(self[sp.name], millis(d-children[i]))
		switch {
		case sp.parent < 0 && sp.name == "job":
			jobTime += d
			jobs++
		case sp.parent >= 0 && list[sp.parent].name == "job":
			layerTime += d - children[i]
		case sp.name == "mpi.run":
			native[sp.job] = d
		case sp.name == "profiler.run":
			overhead = append(overhead, (float64(d)/float64(native[sp.job])-1)*100)
		}
	}
	sort.Float64s(overhead)
	jobMean := millis(jobTime) / float64(jobs)
	out := map[string]metric{}
	for _, l := range layers {
		v := self[l]
		sort.Float64s(v)
		out[l+"_ms"] = metric{quantile(v, 0.5), "ms"}
		out[l+"_share"] = metric{sum(v) / float64(len(v)) / jobMean, "ratio"}
	}

	untimed := 0.0
	for _, t := range tp.untraced {
		untimed += millis(t)
	}
	untimed /= float64(len(tp.untraced))
	n := float64(tp.jobs)
	dedup := 1.0
	if tp.occurrences > 0 {
		dedup = float64(tp.violations) / float64(tp.occurrences)
	}
	bytesPerEvent := 0.0 // when every traced job failed
	if tp.events > 0 {
		bytesPerEvent = float64(tp.bytes) / float64(tp.events)
	}
	r0, r1 := ph.runtime[0], ph.runtime[1]
	out["bench.layer_sum_ratio"] = metric{millis(layerTime) / float64(jobs) / untimed, "ratio"}
	out["bench.trace_overhead_pct"] = metric{(jobMean/untimed - 1) * 100, "%"}
	out["bench.oracle_s"] = metric{b.oracle.Seconds(), "s"}
	out["bench.traced_jobs"] = metric{n, "count"}
	out["trace.bytes_per_event"] = metric{bytesPerEvent, "B"}
	out["dag.regions_per_job"] = metric{float64(tp.regions) / n, "count"}
	out["core.epochs_per_job"] = metric{float64(tp.epochs) / n, "count"}
	out["core.violations_per_job"] = metric{float64(tp.violations) / n, "count"}
	out["core.dedup_ratio"] = metric{dedup, "ratio"}
	out["profiler.overhead_pct"] = metric{quantile(overhead, 0.5), "%"}
	out["profiler.events_per_job"] = metric{float64(tp.emitted) / float64(tp.profiled), "count"}
	out["runtime.gc_cpu_share"] = metric{(r1.gcCPU - r0.gcCPU) / (r1.totalCPU - r0.totalCPU), "ratio"}
	out["runtime.gc_cycles_per_job"] = metric{float64(r1.gcCycles-r0.gcCycles) / float64(len(ph.times)), "count"}
	return out
}
