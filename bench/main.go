// Command bench is the repository benchmark. It measures how long the
// checker takes to reach a verdict on a workload, checks every verdict
// against a known answer, and prints every metric by name with its unit.
// The last line of its output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload bugcorpus --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	start := time.Now()
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 adds the traced phase and prints the per-layer metrics instead of the end-to-end ones")
	logPath := flag.String("log", "", "append the run's result, tagged with workload and seed, as a JSON line to this file")
	compare := flag.Bool("compare", false, "compare two -log files given as arguments against BENCHMARK.json's bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two log files")
			os.Exit(2)
		}
		worse, err := compareLogs(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		rounds:   5,
		trace:    *traced == 1,
		out:      ".bench_build",
	}
	res, err := run(cfg, start, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *logPath != "" {
		if err := appendLog(*logPath, logEntry{Workload: cfg.workload, Seed: cfg.seed, Trace: *traced, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
}

// run sets the workload up, measures it and returns the result; progress
// and every metric go to w as text.
func run(cfg config, start time.Time, w io.Writer) (*result, error) {
	b, err := setUp(cfg, start)
	if err != nil {
		return nil, err
	}
	defer b.close()
	fmt.Fprintf(w, "workload %s, seed %d: %d inputs, sha256 %s\n", cfg.workload, cfg.seed, len(b.inputs), b.sha)
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "setup: %d rounds %v; oracle %v\n", len(b.setup), b.setup, b.oracle)

	steal0, total0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	ph, err := b.timed()
	if err != nil {
		return nil, err
	}
	steal1, total1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "timed: %d jobs in %d passes, closed loop, one client; host steal %.1f%% of CPU time\n",
		len(ph.times), ph.passes, 100*float64(steal1-steal0)/float64(total1-total0))
	m := endToEnd(b, ph)
	if cfg.trace {
		tp, err := b.traced(ph.passes)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "traced: %d jobs, %d spans\n", tp.jobs, len(tp.spans.list))
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeChromeTrace(path, cfg.workload, tp.spans.list); err != nil {
			return nil, fmt.Errorf("chrome trace: %w", err)
		}
		fmt.Fprintf(w, "chrome trace: %s\n", path)
		m = perLayer(b, ph, tp)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	fmt.Fprintf(w, "jobs: %d attempted, %d failed, fail_rate %g\n",
		b.attempted, b.failed, float64(b.failed)/float64(b.attempted))
	for _, f := range b.failures {
		fmt.Fprintln(w, "  failed:", f)
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}
