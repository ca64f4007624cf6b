// Command mcchecker runs MC-Checker end to end on the bundled MPI
// one-sided applications, or analyzes previously collected trace
// directories offline.
//
// Usage:
//
//	mcchecker apps
//	    List the bundled applications (the paper's bug suite).
//
//	mcchecker run -app NAME [-fixed] [-ranks N] [-trace DIR] [-full] [-intra-only]
//	              [-online] [-json] [-stats] [-stats-format text|prom|json]
//	              [-faults PLAN] [-failstop] [-timeout D] [-soak N]
//	    Run an application on the simulated MPI with the Profiler attached
//	    and analyze the trace. By default the buggy variant runs with the
//	    application's ST-Analyzer instrumentation set; -full instruments
//	    every buffer; -intra-only reproduces the SyncChecker baseline;
//	    -online analyzes concurrent regions while the program still runs
//	    (streaming mode); -json prints the report as JSON; -stats collects
//	    and prints run metrics (per-phase wall times, simulator/profiler
//	    counters) in the chosen -stats-format.
//
//	    -faults injects a deterministic fault plan, e.g.
//	    "seed=7,crash=1@120,trunc=0.5,reorder,yield=20" (see internal/faults).
//	    Crashes default to the fault-tolerant survival model (-failstop
//	    selects job-wide abort instead); truncated or crash-shortened traces
//	    are analyzed in degraded mode, and the report lists what was lost.
//	    -timeout adjusts the deadlock watchdog. -soak N repeats the run N
//	    times under seed-varied perturbations and fails on any report
//	    divergence.
//
//	mcchecker explore -app NAME [-fixed] [-n N] [-schedules N] [-strategy S]
//	                  [-jobs K] [-budget D] [-seed N] [-minimize] [-json] [-stats]
//	    Sweep the schedule space (internal/explore): run the application
//	    under many distinct deterministic schedules, deduplicate the
//	    violations by canonical signature, and minimize each finding to a
//	    -faults string replayable with `mcchecker run`. Strategies: sweep
//	    (seeded completion reordering), walk (reordering + scheduler
//	    yields), pct (rank priorities with change points), delay
//	    (delay-bounded completion steps).
//
//	mcchecker analyze [-trace timeline.json] [-intra-only] [-json] [-stats]
//	              [-stats-format F] [-cpuprofile FILE] [-memprofile FILE] [-stats-listen ADDR] DIR
//	    Run DN-Analyzer offline over per-rank trace files. With a
//	    positional DIR (flags first), -trace names a Chrome trace JSON timeline of the
//	    pipeline (per-worker decode lanes, phase and per-epoch/per-region
//	    detect spans, plus one track per violation's happens-before
//	    witness chain; open it in ui.perfetto.dev). The legacy
//	    `analyze -trace DIR` spelling, with no positional argument, still
//	    reads DIR and records no timeline.
//	    -cpuprofile/-memprofile write pprof profiles; -stats-listen
//	    serves /metrics and /debug/pprof while the analysis runs.
//
//	mcchecker analyze -static [-app NAME] [-fixed] [-min-confidence L] [-json] [-stats]
//	    Cross-validate the static epoch-state checker (internal/stanalyzer)
//	    against the dynamic analyzer: run the checker over the embedded
//	    application sources, run each app dynamically on the default
//	    schedule, and classify every finding as confirmed (static
//	    diagnostic matches a dynamic violation's class and location),
//	    static-only, or dynamic-only. `mcchecker explore -static-seed`
//	    prioritizes the ranks named by static-only findings.
//
//	mcchecker corpus [-programs N] [-clean N] [-seed N] [-schedules N] [-json] [-matrix FILE]
//	    Differential engine scoring (internal/experiments): run the dynamic
//	    analyzer, the static checker, and the schedule explorer over every
//	    registry bug case plus freshly generated RMA programs (internal/gen)
//	    with injected bugs, and score them against ground truth. The gate
//	    requires every planted or injected bug to be caught by at least one
//	    engine and every fixed variant or clean generated program to be
//	    violation-free; a failed gate exits 3. -matrix also writes the
//	    markdown detection matrix to FILE.
//
//	mcchecker fix [-app NAME] [-schedules N] [-seed N] [-json] [-diff-dir DIR]
//	    Auto-repair the planted-bug corpus (internal/fix): consume
//	    ST-Analyzer diagnostics with their structured fix actions, apply
//	    the per-kind AST rewrite templates to a copy of the application
//	    source until the diagnostics drain, go/format and re-type-check
//	    the patch, then prove it dynamically — the patched planted variant
//	    must analyze clean under the DN-Analyzer and a schedule-exploration
//	    sweep, with verdicts matching the checked-in fixed variant, and the
//	    clean variant's behavior must be unchanged. -diff-dir writes each
//	    repair's unified diff to DIR/<case>.patch. Any unverified repair
//	    exits 3.
//
//	mcchecker serve [-addr HOST:PORT] [-workers N] [-queue N] [-job-timeout D]
//	                [-max-attempts N] [-retry-backoff D] [-drain-timeout D]
//	    Run the analysis daemon (internal/serve): clients POST trace sets
//	    to /jobs (inline uploads or a server-local directory) and poll
//	    /jobs/{id} for the report. Admission is bounded by -queue (excess
//	    submissions get 429 + Retry-After), each attempt runs under the
//	    -job-timeout watchdog, failures retry with backoff until
//	    -max-attempts then quarantine, and damaged uploads degrade via
//	    the salvage pipeline. SIGTERM drains: in-flight jobs finish, new
//	    ones are refused, then the process exits 0.
//
//	mcchecker dump -trace DIR [-rank N] [-limit N] [-format text|jsonl]
//	    Pretty-print trace files for debugging instrumented runs.
//
// With -json, the stats snapshot is embedded in the report's "stats"
// field instead of being printed separately.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/fix"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/profiler"
	"repro/internal/stanalyzer"
	"repro/internal/stream"
	"repro/internal/trace"
)

// command is one mcchecker subcommand: its dispatch name, the one-line
// summary `mcchecker help` prints, and the synopsis lines shown under it.
// usage() and the help regression test both render from this table, so a
// subcommand cannot be added without appearing in the help text.
type command struct {
	name     string
	summary  string
	synopsis []string
	run      func(args []string) error
}

func commands() []command {
	return []command{
		{
			name:    "apps",
			summary: "list the bundled applications (the paper's bug suite)",
			synopsis: []string{
				"mcchecker apps",
			},
			run: func([]string) error { return listApps() },
		},
		{
			name:    "run",
			summary: "run one application with the Profiler attached and analyze the trace",
			synopsis: []string{
				"mcchecker run -app NAME [-fixed] [-ranks N] [-trace DIR|timeline.json] [-full] [-intra-only] [-online] [-json] [-stats] [-stats-format text|prom|json]",
				"              [-faults PLAN] [-failstop] [-timeout D] [-soak N] [-stats-listen ADDR]",
			},
			run: runCmd,
		},
		{
			name:    "explore",
			summary: "sweep the schedule space and deduplicate violations by signature",
			synopsis: []string{
				"mcchecker explore -app NAME [-fixed] [-n N] [-schedules N] [-strategy sweep|walk|pct|delay] [-jobs K] [-budget D] [-seed N]",
				"              [-minimize] [-minimize-runs N] [-static-seed] [-full] [-intra-only] [-json] [-stats] [-stats-format text|prom|json] [-timeout D]",
				"              [-trace timeline.json] [-stats-listen ADDR]",
			},
			run: exploreCmd,
		},
		{
			name:    "analyze",
			summary: "run DN-Analyzer offline over trace files, or cross-validate the static checker",
			synopsis: []string{
				"mcchecker analyze [-trace timeline.json] [-intra-only] [-json] [-stats] [-stats-format text|prom|json]",
				"              [-cpuprofile FILE] [-memprofile FILE] [-stats-listen ADDR] DIR",
				"mcchecker analyze -trace DIR [...]          (legacy spelling, no timeline)",
				"mcchecker analyze -static [-app NAME] [-fixed] [-min-confidence low|medium|high] [-json] [-stats]",
			},
			run: analyzeCmd,
		},
		{
			name:    "corpus",
			summary: "score every engine against the planted-bug corpus and generated programs",
			synopsis: []string{
				"mcchecker corpus [-programs N] [-clean N] [-seed N] [-schedules N] [-json] [-matrix FILE]",
			},
			run: corpusCmd,
		},
		{
			name:    "fix",
			summary: "auto-repair the planted-bug corpus with verified AST rewrites",
			synopsis: []string{
				"mcchecker fix [-app NAME] [-schedules N] [-seed N] [-json] [-diff-dir DIR]",
			},
			run: fixCmd,
		},
		{
			name:    "serve",
			summary: "run the analysis daemon (POST trace sets to /jobs)",
			synopsis: []string{
				"mcchecker serve [-addr HOST:PORT] [-workers N] [-queue N] [-job-timeout D] [-max-attempts N]",
				"              [-retry-backoff D] [-drain-timeout D]",
			},
			run: serveCmd,
		},
		{
			name:    "dump",
			summary: "pretty-print trace files for debugging instrumented runs",
			synopsis: []string{
				"mcchecker dump -trace DIR [-rank N] [-limit N] [-format text|jsonl]",
			},
			run: dumpCmd,
		},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "-h" || name == "--help" || name == "help" {
		usage(os.Stderr)
		return
	}
	for _, c := range commands() {
		if c.name != name {
			continue
		}
		if err := c.run(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "mcchecker:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "mcchecker: unknown command %q\n", name)
	usage(os.Stderr)
	os.Exit(2)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: mcchecker COMMAND [flags]")
	fmt.Fprintln(w, "\ncommands:")
	for _, c := range commands() {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nsynopsis:")
	for _, c := range commands() {
		for _, line := range c.synopsis {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
}

func listApps() error {
	fmt.Println("bundled applications (paper Table II):")
	for _, bc := range apps.BugCases() {
		fmt.Printf("  %-14s %d ranks  %-11s %s\n", bc.Name, bc.Ranks, bc.Origin, bc.RootCause)
	}
	fmt.Println("extension applications (MPI-3, paper §V):")
	for _, bc := range apps.ExtensionCases() {
		fmt.Printf("  %-14s %d ranks  %-11s %s\n", bc.Name, bc.Ranks, bc.Origin, bc.RootCause)
	}
	fmt.Println("schedule-dependent applications (use `mcchecker explore`):")
	for _, bc := range apps.ScheduleCases() {
		fmt.Printf("  %-14s %d ranks  %-11s %s\n", bc.Name, bc.Ranks, bc.Origin, bc.RootCause)
	}
	fmt.Println("planted-bug corpus (literature patterns, use `mcchecker corpus`):")
	for _, bc := range apps.CorpusCases() {
		fmt.Printf("  %-14s %d ranks  %-11s %s\n", bc.Name, bc.Ranks, bc.Origin, bc.RootCause)
	}
	fmt.Println("overhead workloads (paper Figure 8): use cmd/mcbench")
	return nil
}

func findApp(name string) (apps.BugCase, bool) {
	for _, bc := range apps.AllCases() {
		if bc.Name == name {
			return bc, true
		}
	}
	return apps.BugCase{}, false
}

// runConfig carries one end-to-end run's settings, shared between the
// single-run path and the soak loop.
type runConfig struct {
	body      func(p *mpi.Proc) error
	n         int
	rel       profiler.Relevance
	intraOnly bool
	plan      *faults.Plan
	failstop  bool
	timeout   time.Duration
	traceDir  string
	tl        *timeline
	reg       *obs.Registry
	progress  io.Writer
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	appName := fs.String("app", "", "application name (see `mcchecker apps`)")
	fixed := fs.Bool("fixed", false, "run the fixed variant instead of the buggy one")
	ranks := fs.Int("ranks", 0, "process count (default: the paper's count for the app)")
	traceDir := fs.String("trace", "", "write per-rank trace files to this directory; a .json path records a pipeline timeline instead")
	statsListen := fs.String("stats-listen", "", "serve /metrics and /debug/pprof on this address while running (e.g. :6060)")
	full := fs.Bool("full", false, "instrument every buffer (no static analysis)")
	intraOnly := fs.Bool("intra-only", false, "intra-epoch detection only (SyncChecker baseline)")
	online := fs.Bool("online", false, "analyze regions while the program runs (streaming mode)")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	stats := fs.Bool("stats", false, "collect and print run metrics")
	statsFormat := fs.String("stats-format", "text", "stats output format: text, prom, or json")
	faultsFlag := fs.String("faults", "", `deterministic fault plan, e.g. "seed=7,crash=1@120,trunc=0.5"`)
	failstop := fs.Bool("failstop", false, "abort the whole job on an injected crash (default: fault-tolerant survival)")
	timeout := fs.Duration("timeout", 0, "deadlock watchdog (0 = default 2m)")
	soak := fs.Int("soak", 0, "repeat the run N times under seed-varied perturbations, failing on report divergence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, err := statsRegistry(*stats, *statsFormat)
	if err != nil {
		return err
	}
	// -stats-listen without -stats still needs a live registry so
	// /metrics serves real data; printing stays gated on -stats.
	printReg := reg
	if *statsListen != "" && reg == nil {
		reg = obs.NewRegistry()
	}
	plan, err := faults.Parse(*faultsFlag)
	if err != nil {
		return err
	}
	bc, ok := findApp(*appName)
	if !ok {
		return fmt.Errorf("unknown app %q (try `mcchecker apps`)", *appName)
	}
	n := bc.Ranks
	if *ranks > 0 {
		n = *ranks
	}
	body := bc.Buggy
	variant := "buggy"
	if *fixed {
		body, variant = bc.Fixed, "fixed"
	}

	var rel profiler.Relevance
	mode := "full instrumentation"
	if !*full {
		rel = profiler.FromNames(bc.RelevantBuffers)
		mode = fmt.Sprintf("selective instrumentation %v", bc.RelevantBuffers)
	}
	// Progress goes to stderr under -json so stdout stays parseable.
	progress := os.Stdout
	if *jsonOut {
		progress = os.Stderr
	}
	// A .json -trace path means "record the pipeline timeline there";
	// anything else keeps the original meaning of a trace directory.
	outDir := *traceDir
	var tl *timeline
	if strings.HasSuffix(outDir, ".json") {
		tl, outDir = newTimeline(outDir), ""
	}
	closeStats, err := startStatsListener(*statsListen, reg, progress)
	if err != nil {
		return err
	}
	defer closeStats()
	cfg := runConfig{
		body: body, n: n, rel: rel, intraOnly: *intraOnly,
		plan: plan, failstop: *failstop, timeout: *timeout,
		traceDir: outDir, tl: tl, reg: reg, progress: progress,
	}

	if *soak > 0 {
		if *online || *traceDir != "" || *stats {
			return fmt.Errorf("-soak runs offline in memory (drop -online, -trace, and -stats)")
		}
		fmt.Fprintf(progress, "soaking %s (%s) on %d simulated ranks, %d iterations\n", bc.Name, variant, n, *soak)
		return soakRun(cfg, *soak, *jsonOut, *statsFormat)
	}
	fmt.Fprintf(progress, "running %s (%s) on %d simulated ranks, %s\n", bc.Name, variant, n, mode)

	if *online && tl != nil {
		return fmt.Errorf("timeline recording (-trace %s) requires the offline pipeline (drop -online)", tl.path)
	}
	if *online {
		sc := stream.New(n, func(v *core.Violation) {
			fmt.Fprintf(progress, "[online] %s\n", v)
		})
		sc.SetObs(reg)
		sc.SetTolerant(cfg.tolerant())
		pr := profiler.NewObs(sc, rel, reg)
		var notes []string
		if err := mpi.Run(n, cfg.mpiOptions(pr), body); err != nil {
			if !mpi.Degraded(err) {
				return fmt.Errorf("run failed: %w", err)
			}
			fmt.Fprintf(progress, "warning: run degraded: %v\n", err)
			notes = flattenErrs(err)
		}
		rep, err := sc.Finish()
		if err != nil {
			return err
		}
		rep.Degraded = append(notes, rep.Degraded...)
		fmt.Fprintf(progress, "analyzed %d slab(s) online\n", sc.Slabs())
		return printReport(rep, *jsonOut, printReg, *statsFormat)
	}

	rep, err := runOffline(cfg)
	if err != nil {
		return err
	}
	core.AddWitnessTracks(tl.recorder(), rep)
	if err := tl.flush(progress); err != nil {
		return err
	}
	return printReport(rep, *jsonOut, printReg, *statsFormat)
}

// tolerant reports whether injected crashes use the survival model.
func (cfg *runConfig) tolerant() bool {
	return cfg.plan.HasCrash() && !cfg.failstop
}

func (cfg *runConfig) mpiOptions(hook mpi.Hook) mpi.Options {
	return mpi.Options{
		Hook: hook, Obs: cfg.reg, Timeout: cfg.timeout,
		Faults: cfg.plan, FaultTolerant: cfg.tolerant(),
	}
}

// exploreCmd sweeps the schedule space of one application with
// internal/explore and reports the distinct violations, each with a
// replayable (and, by default, ddmin-minimized) -faults string.
func exploreCmd(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	appName := fs.String("app", "", "application name (see `mcchecker apps`)")
	fixed := fs.Bool("fixed", false, "explore the fixed variant instead of the buggy one")
	ranks := fs.Int("n", 0, "process count (default: the paper's count for the app)")
	schedules := fs.Int("schedules", 1000, "number of distinct schedules to try")
	strategyName := fs.String("strategy", "sweep", "schedule strategy: sweep, walk, pct, or delay")
	jobs := fs.Int("jobs", 0, "worker pool width (0 = GOMAXPROCS)")
	budget := fs.Duration("budget", 0, "wall-clock budget for the sweep (0 = unlimited)")
	seed := fs.Uint64("seed", 1, "base seed the strategy derives schedules from")
	minimize := fs.Bool("minimize", true, "ddmin-minimize each finding's schedule")
	minimizeRuns := fs.Int("minimize-runs", 64, "max extra runs spent minimizing each finding")
	staticSeed := fs.Bool("static-seed", false, "seed the sweep from static-checker diagnostics (delay the ranks they name first)")
	full := fs.Bool("full", false, "instrument every buffer (no static analysis)")
	intraOnly := fs.Bool("intra-only", false, "intra-epoch detection only (SyncChecker baseline)")
	jsonOut := fs.Bool("json", false, "print the result as JSON")
	stats := fs.Bool("stats", false, "collect and print run metrics")
	statsFormat := fs.String("stats-format", "text", "stats output format: text, prom, or json")
	timeout := fs.Duration("timeout", 0, "per-run deadlock watchdog (0 = default 2m)")
	tracePath := fs.String("trace", "", "record a per-schedule timeline to this Chrome trace JSON file")
	statsListen := fs.String("stats-listen", "", "serve /metrics and /debug/pprof on this address while exploring (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, err := statsRegistry(*stats, *statsFormat)
	if err != nil {
		return err
	}
	// As in runCmd: a listener needs a registry even without -stats.
	printReg := reg
	if *statsListen != "" && reg == nil {
		reg = obs.NewRegistry()
	}
	strat, err := explore.ParseStrategy(*strategyName)
	if err != nil {
		return err
	}
	bc, ok := findApp(*appName)
	if !ok {
		return fmt.Errorf("unknown app %q (try `mcchecker apps`)", *appName)
	}
	n := bc.Ranks
	if *ranks > 0 {
		n = *ranks
	}
	body := bc.Buggy
	variant := "buggy"
	if *fixed {
		body, variant = bc.Fixed, "fixed"
	}
	var rel profiler.Relevance
	if !*full {
		rel = profiler.FromNames(bc.RelevantBuffers)
	}
	progress := io.Writer(os.Stdout)
	if *jsonOut {
		progress = os.Stderr
	}
	if *staticSeed {
		srep, serr := stanalyzer.CheckFS(apps.SourceFS(), stanalyzer.Options{
			Defines: map[string]bool{"buggy": !*fixed},
		})
		if serr != nil {
			return fmt.Errorf("static seeding: %w", serr)
		}
		hints := explore.HintsFromDiagnostics(srep.ForFunctions(srep.Reachable(bc.StaticRoot)))
		if len(hints) > 0 {
			strat = explore.Hinted{Base: strat, Ranks: hints}
			fmt.Fprintf(progress, "static seeding: prioritizing origin rank(s) %v from %s diagnostics\n", hints, bc.StaticRoot)
		} else {
			fmt.Fprintf(progress, "static seeding: no rank hints for %s; using plain %s\n", bc.Name, strat.Name())
		}
	}
	fmt.Fprintf(progress, "exploring %s (%s) on %d simulated ranks: %d schedules, strategy %s\n",
		bc.Name, variant, n, *schedules, strat.Name())

	closeStats, err := startStatsListener(*statsListen, reg, progress)
	if err != nil {
		return err
	}
	defer closeStats()
	tl := newTimeline(*tracePath)
	res, err := explore.Explore(explore.Config{
		Runner: &explore.Runner{
			Body: body, Ranks: n, Rel: rel,
			Timeout: *timeout, IntraOnly: *intraOnly, Obs: reg,
		},
		Strategy:     strat,
		Schedules:    *schedules,
		Jobs:         *jobs,
		Budget:       *budget,
		Seed:         *seed,
		Minimize:     *minimize,
		MinimizeRuns: *minimizeRuns,
		Progress:     progress,
		Trace:        tl.recorder(),
	})
	if err != nil {
		return err
	}
	if err := tl.flush(progress); err != nil {
		return err
	}
	if err := printExplore(res, bc.Name, *jsonOut, printReg, *statsFormat); err != nil {
		return err
	}
	if res.Distinct() > 0 {
		os.Exit(3)
	}
	return nil
}

// corpusCmd runs the differential engine-scoring harness: every engine
// over every registry bug case plus generated programs with injected
// bugs, gated on "all bugs caught, all clean programs clean".
func corpusCmd(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	programs := fs.Int("programs", 0, "generated programs with injected bugs (0 = 3 per pattern)")
	clean := fs.Int("clean", 0, "clean generated programs (0 = 200)")
	seed := fs.Uint64("seed", 1, "base seed for program generation")
	schedules := fs.Int("schedules", 0, "explorer schedules per program (0 = 12)")
	jsonOut := fs.Bool("json", false, "print the result as JSON")
	matrixPath := fs.String("matrix", "", "also write the markdown detection matrix to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("corpus takes no positional arguments")
	}
	progress := io.Writer(os.Stdout)
	if *jsonOut {
		progress = os.Stderr
	}
	fmt.Fprintf(progress, "scoring engines over %d registry case(s) + generated programs (seed %d)\n",
		len(apps.AllCases()), *seed)
	res, err := experiments.Corpus(experiments.CorpusConfig{
		Generated: *programs, Clean: *clean, Seed: *seed, Schedules: *schedules,
	})
	if err != nil {
		return err
	}
	matrix := res.MarkdownMatrix()
	if *matrixPath != "" {
		if err := os.WriteFile(*matrixPath, []byte(matrix), 0o644); err != nil {
			return fmt.Errorf("matrix: %w", err)
		}
		fmt.Fprintf(progress, "wrote detection matrix to %s\n", *matrixPath)
	}
	if *jsonOut {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(matrix)
	}
	if !res.Gate {
		os.Exit(3)
	}
	return nil
}

// fixCmd auto-repairs the planted-bug corpus: every buggy variant is
// patched from its static diagnostics and the repair proven against the
// dynamic engines (internal/fix). Any unverified repair exits 3.
func fixCmd(args []string) error {
	fs := flag.NewFlagSet("fix", flag.ExitOnError)
	appName := fs.String("app", "", "repair only this corpus case (default: all)")
	schedules := fs.Int("schedules", 0, "explorer schedules per verification sweep (0 = 6)")
	seed := fs.Uint64("seed", 1, "explorer seed for the verification sweeps")
	jsonOut := fs.Bool("json", false, "print the per-case results as JSON")
	diffDir := fs.String("diff-dir", "", "write each repair's unified diff to DIR/<case>.patch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("fix takes no positional arguments")
	}
	cases := apps.CorpusCases()
	if *appName != "" {
		var picked []apps.BugCase
		for _, bc := range cases {
			if bc.Name == *appName {
				picked = append(picked, bc)
			}
		}
		if len(picked) == 0 {
			return fmt.Errorf("unknown corpus case %q (see `mcchecker apps`)", *appName)
		}
		cases = picked
	}
	progress := io.Writer(os.Stdout)
	if *jsonOut {
		progress = os.Stderr
	}
	if *diffDir != "" {
		if err := os.MkdirAll(*diffDir, 0o755); err != nil {
			return fmt.Errorf("diff-dir: %w", err)
		}
	}
	fmt.Fprintf(progress, "repairing %d corpus case(s), verification: dynamic + %d-schedule sweep (seed %d)\n",
		len(cases), fixSchedules(*schedules), *seed)
	results, err := fix.RepairAll(cases, fix.VerifyConfig{Schedules: *schedules, Seed: *seed})
	if err != nil {
		return err
	}
	verified := 0
	for _, res := range results {
		status := "FAIL"
		if res.Verified {
			status = "ok"
			verified++
		}
		fmt.Fprintf(progress, "  %-16s %s  %d step(s)", res.Name, status, len(res.Steps))
		for _, st := range res.Steps {
			fmt.Fprintf(progress, "  [%s]", st.Action)
		}
		if !res.Verified {
			fmt.Fprintf(progress, "  (%s)", res.Reason)
		}
		fmt.Fprintln(progress)
		if *diffDir != "" && res.Diff != "" {
			path := filepath.Join(*diffDir, res.Name+".patch")
			if err := os.WriteFile(path, []byte(res.Diff), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", path, err)
			}
		}
	}
	if *diffDir != "" {
		fmt.Fprintf(progress, "wrote patch diffs to %s\n", *diffDir)
	}
	fmt.Fprintf(progress, "%d/%d repair(s) verified\n", verified, len(results))
	if *jsonOut {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	}
	if verified != len(results) {
		os.Exit(3)
	}
	return nil
}

// fixSchedules mirrors fix.VerifyConfig's default for the progress line.
func fixSchedules(n int) int {
	if n == 0 {
		return 6
	}
	return n
}

// printExplore renders an exploration result (text or JSON). Like
// printReport it is called before any error exit so -stats always lands.
func printExplore(res *explore.Result, appName string, asJSON bool, reg *obs.Registry, statsFormat string) error {
	var snap *obs.Snapshot
	if reg != nil {
		snap = reg.Snapshot()
	}
	if asJSON {
		type findingJSON struct {
			Signature    string `json:"signature"`
			Count        int    `json:"count"`
			FirstIndex   int    `json:"first_schedule"`
			Replay       string `json:"replay"`
			Minimized    string `json:"minimized,omitempty"`
			MinimizeRuns int    `json:"minimize_runs,omitempty"`
			Example      string `json:"example"`
		}
		out := struct {
			Strategy        string        `json:"strategy"`
			Schedules       int           `json:"schedules"`
			Violating       int           `json:"violating"`
			Failures        int           `json:"failures"`
			Distinct        int           `json:"distinct"`
			ElapsedSec      float64       `json:"elapsed_seconds"`
			SchedulesPerSec float64       `json:"schedules_per_sec"`
			Findings        []findingJSON `json:"findings"`
			Stats           *obs.Snapshot `json:"stats,omitempty"`
		}{
			Strategy: res.Strategy, Schedules: res.Schedules,
			Violating: res.Violating, Failures: res.Failures,
			Distinct: res.Distinct(), ElapsedSec: res.Elapsed.Seconds(),
			SchedulesPerSec: res.SchedulesPerSec(),
			Findings:        []findingJSON{}, Stats: snap,
		}
		for _, f := range res.Findings {
			out.Findings = append(out.Findings, findingJSON{
				Signature: f.Signature, Count: f.Count, FirstIndex: f.FirstIndex,
				Replay: f.FirstPlan.String(), Minimized: f.Minimized,
				MinimizeRuns: f.MinimizeRuns, Example: f.Example.String(),
			})
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Printf("explored %d schedule(s) in %.2fs (%.0f schedules/s): %d violating run(s), %d distinct violation(s)\n",
			res.Schedules, res.Elapsed.Seconds(), res.SchedulesPerSec(), res.Violating, res.Distinct())
		if res.Failures > 0 {
			fmt.Printf("%d run(s) failed outright\n", res.Failures)
		}
		for i, f := range res.Findings {
			fmt.Printf("\n#%d %s\n", i+1, f.Example)
			fmt.Printf("  seen in %d schedule(s), first at schedule %d\n", f.Count, f.FirstIndex)
			fmt.Printf("  replay:    mcchecker run -app %s -faults %q\n", appName, f.FirstPlan.String())
			if f.Minimized != "" {
				fmt.Printf("  minimized: mcchecker run -app %s -faults %q  (%d minimization runs)\n",
					appName, f.Minimized, f.MinimizeRuns)
			}
		}
		if res.Distinct() == 0 {
			fmt.Println("no violations under any explored schedule")
		}
		if snap != nil {
			fmt.Println("--- run stats ---")
			var err error
			switch statsFormat {
			case "prom":
				err = snap.WritePrometheus(os.Stdout)
			case "json":
				err = snap.WriteJSON(os.Stdout)
			default:
				err = snap.WriteText(os.Stdout)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// runner builds the explore.Runner equivalent of this configuration:
// the single-run primitive shared by the run, soak, and explore paths.
func (cfg *runConfig) runner() *explore.Runner {
	r := &explore.Runner{
		Body: cfg.body, Ranks: cfg.n, Rel: cfg.rel,
		Timeout: cfg.timeout, Failstop: cfg.failstop,
		IntraOnly: cfg.intraOnly, Obs: cfg.reg,
		Trace: cfg.tl.recorder(),
	}
	if cfg.traceDir != "" {
		r.OnTrace = func(set *trace.Set) {
			// A failed trace write must be a visible warning, not a lost
			// report: analysis continues from the in-memory events.
			if err := trace.WriteDirObs(cfg.traceDir, set, cfg.reg); err != nil {
				fmt.Fprintf(cfg.progress, "warning: writing trace files: %v\n", err)
			} else {
				fmt.Fprintf(cfg.progress, "wrote %d events to %s\n", set.TotalEvents(), cfg.traceDir)
				truncateTraceFiles(cfg.traceDir, cfg.plan, cfg.n, cfg.progress)
			}
		}
	}
	return r
}

// runOffline executes one offline run → trace → analyze pass through the
// explore.Runner primitive. With an active fault plan (or a degraded
// simulation) the analysis runs in degraded mode and the report carries
// the loss diagnostics; without one the strict path is used unchanged.
func runOffline(cfg runConfig) (*core.Report, error) {
	rep, err := cfg.runner().Run(cfg.plan)
	if err != nil {
		return nil, err
	}
	for _, note := range rep.Degraded {
		fmt.Fprintf(cfg.progress, "warning: run degraded: %s\n", note)
	}
	return rep, nil
}

// flattenErrs splits a joined error tree into one note per leaf.
func flattenErrs(err error) []string {
	if err == nil {
		return nil
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		var notes []string
		for _, sub := range j.Unwrap() {
			notes = append(notes, flattenErrs(sub)...)
		}
		return notes
	}
	return []string{err.Error()}
}

// truncateTraceFiles applies the plan's truncation faults to the on-disk
// trace files, so a later `mcchecker analyze` faces the same damage the
// in-memory pipeline simulated.
func truncateTraceFiles(dir string, plan *faults.Plan, n int, progress io.Writer) {
	for r := 0; r < n; r++ {
		frac, ok := plan.TruncFor(r)
		if !ok || frac >= 1 {
			continue
		}
		path := filepath.Join(dir, trace.FileName(int32(r)))
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(path, faults.TruncateBytes(data, frac), 0o644)
		}
		if err != nil {
			fmt.Fprintf(progress, "warning: truncation fault on %s: %v\n", path, err)
			continue
		}
		fmt.Fprintf(progress, "fault: truncated %s to fraction %g\n", path, frac)
	}
}

// soakRun is a thin wrapper over explore.Soak: repeat the offline run
// under seed-varied perturbations and verify the report is invariant.
func soakRun(cfg runConfig, iters int, jsonOut bool, statsFormat string) error {
	first, err := explore.Soak(cfg.runner(), cfg.plan, iters)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.progress, "soak: %d iterations, reports identical\n", iters)
	return printReport(first, jsonOut, nil, statsFormat)
}

// statsRegistry validates the -stats flags and returns the registry to
// thread through the run — nil (metrics disabled) unless -stats was given.
func statsRegistry(enabled bool, format string) (*obs.Registry, error) {
	switch format {
	case "text", "prom", "json":
	default:
		return nil, fmt.Errorf("unknown -stats-format %q (want text, prom, or json)", format)
	}
	if !enabled {
		return nil, nil
	}
	return obs.NewRegistry(), nil
}

// timeline owns one -trace timeline recording: the span recorder threaded
// through the pipeline and the Chrome trace JSON file it is written to.
// A nil *timeline is inert, so call sites can thread tl.recorder()
// unconditionally.
type timeline struct {
	rec  *tracing.Recorder
	path string
}

func newTimeline(path string) *timeline {
	if path == "" {
		return nil
	}
	return &timeline{rec: tracing.New(), path: path}
}

func (tl *timeline) recorder() *tracing.Recorder {
	if tl == nil {
		return nil
	}
	return tl.rec
}

// flush writes the recorded timeline. It must run before printReport or
// printExplore, which may os.Exit(3) on findings.
func (tl *timeline) flush(progress io.Writer) error {
	if tl == nil {
		return nil
	}
	f, err := os.Create(tl.path)
	if err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	if err := tl.rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("timeline: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	fmt.Fprintf(progress, "wrote timeline (%d events) to %s — open in https://ui.perfetto.dev\n",
		tl.rec.Len(), tl.path)
	return nil
}

// startCPUProfile begins a CPU profile to path ("" = disabled). The
// returned stop function must run before any os.Exit, including the
// findings exit in printReport.
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile dumps a heap profile to path ("" = disabled) after a GC,
// so the profile reflects live objects rather than garbage.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// startStatsListener serves /metrics, /stats, and /debug/pprof/ on addr
// for the duration of the command ("" = disabled). The registry may be
// nil, leaving the pprof endpoints as the useful surface.
func startStatsListener(addr string, reg *obs.Registry, progress io.Writer) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	srv, err := obs.ServeStats(addr, reg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(progress, "stats listener on http://%s (/metrics, /stats, /debug/pprof/)\n", srv.Addr())
	return func() { srv.Close() }, nil
}

// printReport renders the report (text or JSON) and exits with status 3
// when errors were found, like compilers and linters signal findings.
// When reg is non-nil its snapshot is printed before any error exit: as a
// separate section in text mode, embedded in the report in JSON mode.
func printReport(rep *core.Report, asJSON bool, reg *obs.Registry, statsFormat string) error {
	var snap *obs.Snapshot
	if reg != nil {
		snap = reg.Snapshot()
	}
	if asJSON {
		rep.Stats = snap
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(rep)
		if snap != nil {
			fmt.Println("--- run stats ---")
			var err error
			switch statsFormat {
			case "prom":
				err = snap.WritePrometheus(os.Stdout)
			case "json":
				err = snap.WriteJSON(os.Stdout)
			default:
				err = snap.WriteText(os.Stdout)
			}
			if err != nil {
				return err
			}
		}
	}
	if len(rep.Errors()) > 0 {
		os.Exit(3)
	}
	return nil
}

func analyzeCmd(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	traceDir := fs.String("trace", "", "trace directory to analyze; with a positional DIR argument, the timeline output file instead")
	static := fs.Bool("static", false, "cross-validate the static checker against dynamic runs of the bundled apps")
	appName := fs.String("app", "", "with -static: cross-validate only this app (default: all)")
	fixed := fs.Bool("fixed", false, "with -static: cross-validate the fixed variants")
	minConf := fs.String("min-confidence", "low", "with -static: consider only diagnostics at or above this confidence")
	intraOnly := fs.Bool("intra-only", false, "intra-epoch detection only")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	stats := fs.Bool("stats", false, "collect and print analysis metrics")
	statsFormat := fs.String("stats-format", "text", "stats output format: text, prom, or json")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	statsListen := fs.String("stats-listen", "", "serve /metrics and /debug/pprof on this address while analyzing (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *static {
		if fs.NArg() > 0 {
			return fmt.Errorf("-static takes no positional arguments")
		}
		reg, err := statsRegistry(*stats, *statsFormat)
		if err != nil {
			return err
		}
		min, err := stanalyzer.ParseConfidence(*minConf)
		if err != nil {
			return err
		}
		return staticCrossValidate(*appName, *fixed, *jsonOut, min, reg, *statsFormat)
	}
	// Two spellings: `analyze DIR [-trace timeline.json]` (positional
	// input, -trace names the timeline output) and the legacy
	// `analyze -trace DIR` (no timeline).
	inputDir := *traceDir
	timelinePath := ""
	switch {
	case fs.NArg() > 1:
		return fmt.Errorf("at most one trace directory argument, got %d", fs.NArg())
	case fs.NArg() == 1:
		inputDir = fs.Arg(0)
		timelinePath = *traceDir
	}
	if inputDir == "" {
		return fmt.Errorf("a trace directory is required (positional, or -trace DIR; or -static)")
	}
	reg, err := statsRegistry(*stats, *statsFormat)
	if err != nil {
		return err
	}
	// As in runCmd: a listener needs a registry even without -stats.
	printReg := reg
	if *statsListen != "" && reg == nil {
		reg = obs.NewRegistry()
	}
	stopCPU, err := startCPUProfile(*cpuprofile)
	if err != nil {
		return err
	}
	defer stopCPU()
	closeStats, err := startStatsListener(*statsListen, reg, os.Stderr)
	if err != nil {
		return err
	}
	defer closeStats()
	tl := newTimeline(timelinePath)
	sc := obs.Scope{Obs: reg, Trace: tl.recorder()}
	opts := core.DefaultOptions()
	opts.Scope = sc
	if *intraOnly {
		opts.CrossProcess = false
	}

	// finish flushes everything that must not be lost to the findings
	// exit inside printReport: profiles, witness tracks, the timeline.
	finish := func(rep *core.Report) error {
		stopCPU()
		if err := writeMemProfile(*memprofile); err != nil {
			return err
		}
		core.AddWitnessTracks(tl.recorder(), rep)
		if err := tl.flush(os.Stderr); err != nil {
			return err
		}
		return printReport(rep, *jsonOut, printReg, *statsFormat)
	}

	set, err := trace.ReadDirWith(inputDir, sc)
	if err != nil {
		// Strict reading failed (truncated or damaged files): salvage the
		// valid per-rank prefixes and produce a degraded report instead of
		// nothing.
		fmt.Fprintf(os.Stderr, "mcchecker: strict trace read failed (%v); salvaging\n", err)
		salvaged, notes, serr := trace.ReadDirSalvage(inputDir, sc)
		if serr != nil {
			return serr
		}
		notes = append([]string{fmt.Sprintf("strict read failed: %v", err)}, notes...)
		rep, derr := core.AnalyzeDegraded(salvaged, opts, notes)
		if derr != nil {
			return derr
		}
		return finish(rep)
	}
	rep, err := core.AnalyzeWith(set, opts)
	if err != nil {
		return err
	}
	return finish(rep)
}

// dumpCmd pretty-prints trace files for debugging instrumented runs.
func dumpCmd(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	traceDir := fs.String("trace", "", "trace directory")
	rank := fs.Int("rank", -1, "dump only this rank (-1 = all)")
	limit := fs.Int("limit", 0, "stop after this many events per rank (0 = all)")
	format := fs.String("format", "text", "output format: text or jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceDir == "" {
		return fmt.Errorf("-trace is required")
	}
	set, err := trace.ReadDir(*traceDir)
	if err != nil {
		return err
	}
	if *format == "jsonl" {
		return trace.WriteJSONL(os.Stdout, set)
	}
	for _, t := range set.Traces {
		if *rank >= 0 && int(t.Rank) != *rank {
			continue
		}
		fmt.Printf("--- rank %d: %d events ---\n", t.Rank, len(t.Events))
		for i := range t.Events {
			if *limit > 0 && i >= *limit {
				fmt.Printf("... %d more\n", len(t.Events)-i)
				break
			}
			fmt.Println(t.Events[i].String())
		}
	}
	return nil
}
