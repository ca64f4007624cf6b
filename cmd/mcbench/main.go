// Command mcbench regenerates the tables and figures of the paper's
// evaluation (§VI–§VII) on the simulated substrate.
//
// Usage:
//
//	mcbench -exp table1                      # compatibility matrix
//	mcbench -exp table2 [-paper-scale]       # bug detection results
//	mcbench -exp fig8   [-ranks N] [-scale S] [-repeats R]
//	mcbench -exp fig9   [-lu-n N] [-repeats R]   # also prints fig10 data
//	mcbench -exp fig10  [-lu-n N] [-repeats R]
//	mcbench -exp weak   [-repeats R]         # weak-scaling prediction (§VII-B)
//	mcbench -exp ablation                    # linear vs quadratic detector
//	mcbench -exp synccheck                   # SyncChecker comparison
//	mcbench -exp explore [-schedules N]      # schedule-exploration throughput
//	mcbench -exp serve [-clients N] [-serve-jobs N] [-serve-queue N] [-fault-frac F]
//	mcbench -exp all                         # every experiment above but serve
//
// Global flags: -cpuprofile FILE and -memprofile FILE write pprof
// profiles of the whole invocation. Any other -exp name exits 2.
//
// Absolute times are machine-local; the reproduction targets are the
// paper's shapes: which configuration wins, by roughly what factor, and in
// which direction overhead moves with scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/experiments"
)

// options holds the parsed command line.
type options struct {
	exp, cpuprofile, memprofile                                    string
	ranks, repeats, luN, schedules, clients, serveJobs, serveQueue int
	scale, faultFrac                                               float64
	paperScale                                                     bool
}

// experiment is one -exp name and what it runs.
type experiment struct {
	name  string
	inAll bool // whether -exp all runs it
	run   func(o *options) error
}

// expTable lists every experiment, in the order -exp all runs them.
var expTable = []experiment{
	{"table1", true, func(*options) error { return table1() }},
	{"table2", true, func(o *options) error { return table2(o.paperScale) }},
	{"fig8", true, func(o *options) error { return fig8(o.ranks, o.scale, o.repeats) }},
	{"fig9", true, func(o *options) error { return fig9and10(o.luN, o.repeats, true, o.exp == "all") }},
	// all prints Figure 10 with Figure 9, from the same LU runs.
	{"fig10", false, func(o *options) error { return fig9and10(o.luN, o.repeats, false, true) }},
	{"weak", true, func(o *options) error { return weakScaling(o.repeats) }},
	{"ablation", true, func(*options) error { return ablation() }},
	{"synccheck", true, func(*options) error { return synccheck() }},
	{"explore", true, func(o *options) error { return exploreThroughput(o.schedules) }},
	// Saturating the daemon takes a while, so all leaves it out.
	{"serve", false, serveLoad},
}

// expNames returns every value -exp accepts: the table's names and all.
func expNames() []string {
	var names []string
	for _, e := range expTable {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// parseFlags parses args and reports any error, an unknown -exp name
// included, to stderr.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	names := expNames()
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(names, "|"))
	fs.IntVar(&o.ranks, "ranks", 64, "rank count for fig8 (paper: 64)")
	fs.Float64Var(&o.scale, "scale", 1.0, "workload scale factor for fig8")
	fs.IntVar(&o.repeats, "repeats", 3, "timing repetitions (minimum kept)")
	fs.IntVar(&o.luN, "lu-n", 192, "LU matrix order for fig9/fig10 (paper: 1500)")
	fs.BoolVar(&o.paperScale, "paper-scale", false, "table2: use the paper's full process counts (lockopts at 64)")
	fs.IntVar(&o.schedules, "schedules", 2000, "schedule count for the explore experiment")
	fs.IntVar(&o.clients, "clients", 8, "serve: concurrent load-generator clients")
	fs.IntVar(&o.serveJobs, "serve-jobs", 120, "serve: total jobs to push through the daemon")
	fs.IntVar(&o.serveQueue, "serve-queue", 0, "serve: daemon queue budget (0 = 2x workers)")
	fs.Float64Var(&o.faultFrac, "fault-frac", 0.25, "serve: fraction of submissions with damaged uploads")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if !slices.Contains(names, o.exp) {
		err := fmt.Errorf("unknown experiment %q (valid: %s)", o.exp, strings.Join(names, "|"))
		fmt.Fprintf(stderr, "mcbench: %v\n", err)
		return nil, err
	}
	return &o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp { // fs.Parse returns it bare
		return
	}
	if err != nil {
		os.Exit(2)
	}

	stopCPU := func() {}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	finish := func() {
		stopCPU()
		if o.memprofile != "" {
			f, err := os.Create(o.memprofile)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mcbench: memprofile: %v\n", err)
				os.Exit(1)
			}
		}
	}
	defer finish()

	for _, e := range expTable {
		if o.exp != e.name && !(o.exp == "all" && e.inAll) {
			continue
		}
		if err := e.run(o); err != nil {
			fmt.Fprintf(os.Stderr, "mcbench %s: %v\n", e.name, err)
			finish()
			os.Exit(1)
		}
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func table1() error {
	header("Table I: compatibility matrix of RMA operations")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, row := range experiments.Table1() {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	return w.Flush()
}

func table2(paperScale bool) error {
	header("Table II: detecting memory consistency bugs")
	rows, err := experiments.Table2(paperScale)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "App\tRanks\tOrigin\tError location\tRoot cause\tDetected\tFixed clean\tDiagnosis")
	detected := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%v\t%v\t%s\n",
			r.App, r.Ranks, r.Origin, r.ErrorLocation, r.RootCause, r.Detected, r.FixedClean, r.Diagnosis)
		if r.Detected {
			detected++
		}
	}
	w.Flush()
	fmt.Printf("detected %d/%d bugs (paper: 5/5)\n", detected, len(rows))

	ext, err := experiments.Table2Extensions()
	if err != nil {
		return err
	}
	header("Table II extensions (beyond the paper: PSCW, MPI-3)")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "App\tRanks\tOrigin\tError location\tDetected\tFixed clean\tDiagnosis")
	for _, r := range ext {
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%v\t%v\t%s\n",
			r.App, r.Ranks, r.Origin, r.ErrorLocation, r.Detected, r.FixedClean, r.Diagnosis)
	}
	return w.Flush()
}

func fig8(ranks int, scale float64, repeats int) error {
	header(fmt.Sprintf("Figure 8: profiling overhead, %d ranks (paper: +24.6%%..+71.1%%, avg +45.2%%)", ranks))
	rows, err := experiments.Fig8(ranks, scale, repeats)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "App\tNative\tProfiled\tOverhead\tFull-instr\tFull overhead\tload/store events\tMPI events")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%v\t%+.1f%%\t%v\t%+.1f%%\t%d\t%d\n",
			r.App, r.Native.Round(100_000), r.Profiled.Round(100_000), r.OverheadPct,
			r.Full.Round(100_000), r.FullOverheadPct, r.Stats.LoadStore, r.Stats.MPIEvents())
		sum += r.OverheadPct
	}
	w.Flush()
	fmt.Printf("average selective overhead: %+.1f%% (paper: +45.2%%)\n", sum/float64(len(rows)))
	return nil
}

func fig9and10(luN, repeats int, printFig9, printFig10 bool) error {
	ranksList := []int{8, 16, 32, 64, 128}
	rows, err := experiments.Fig9(luN, ranksList, repeats)
	if err != nil {
		return err
	}
	if printFig9 {
		header(fmt.Sprintf("Figure 9: LU (N=%d) profiling overhead vs ranks (paper: 147.2%%→37.1%%, decreasing)", luN))
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Ranks\tNative\tProfiled\tOverhead")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%v\t%v\t%+.1f%%\n", r.Ranks, r.Native.Round(100_000), r.Profiled.Round(100_000), r.OverheadPct)
		}
		w.Flush()
	}
	if printFig10 {
		header("Figure 10: per-rank event rates vs ranks (paper: load/store rate decreasing)")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Ranks\tload/store events/rank\tMPI events/rank\tload/store rate (ev/s/rank)\tMPI rate (ev/s/rank)")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%d\t%d\t%.0f\t%.0f\n",
				r.Ranks, r.LoadStoreEvents/int64(r.Ranks), r.MPIEvents/int64(r.Ranks), r.LoadStoreRate, r.MPIRate)
		}
		w.Flush()
	}
	return nil
}

func weakScaling(repeats int) error {
	header("Weak scaling (paper §VII-B prediction: constant overhead as ranks grow)")
	rows, err := experiments.WeakScaling(192, 30, []int{4, 8, 16, 32, 64}, repeats)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Ranks\tNative\tProfiled\tOverhead\tload/store events/rank")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%v\t%+.1f%%\t%d\n",
			r.Ranks, r.Native.Round(100_000), r.Profiled.Round(100_000),
			r.OverheadPct, r.LoadStoreEvents/int64(r.Ranks))
	}
	return w.Flush()
}

func ablation() error {
	header("Ablation §IV-C-4: linear vs quadratic cross-process detection")
	rows, err := experiments.Ablation([]int{256, 512, 1024, 2048, 4096})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Ops in region\tLinear\tQuadratic\tSpeedup\tAgree\tViolations")
	for _, r := range rows {
		speed := float64(r.Quadratic) / float64(r.Linear)
		fmt.Fprintf(w, "%d\t%v\t%v\t%.1fx\t%v\t%d\n",
			r.Ops, r.Linear.Round(10_000), r.Quadratic.Round(10_000), speed, r.Agreement, r.Violations)
	}
	return w.Flush()
}

func exploreThroughput(schedules int) error {
	header(fmt.Sprintf("Schedule exploration throughput: schedrace, sweep strategy, %d schedules", schedules))
	jobsList := []int{1, 2, runtime.GOMAXPROCS(0)}
	if jobsList[2] <= jobsList[1] {
		jobsList = jobsList[:2]
	}
	rows, err := experiments.ExploreThroughput(schedules, jobsList)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Jobs\tSchedules\tElapsed\tSchedules/s\tSpeedup\tDistinct violations")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%v\t%.0f\t%.2fx\t%d\n",
			r.Jobs, r.Schedules, r.Elapsed.Round(100_000), r.SchedulesPerSec, r.Speedup, r.Distinct)
	}
	w.Flush()
	fmt.Println("the distinct-violation column must not vary with jobs; speedup should grow toward GOMAXPROCS")
	return nil
}

// serveLoad drives the analysis daemon to saturation with concurrent,
// partly fault-injected clients and prints the latency and shed numbers.
func serveLoad(o *options) error {
	header("Serve-load: daemon under concurrent, fault-injected submissions")
	res, err := experiments.ServeLoad(experiments.ServeLoadConfig{
		Clients: o.clients, Jobs: o.serveJobs, QueueBudget: o.serveQueue, FaultFraction: o.faultFrac,
	})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Clients\t%d\n", res.Clients)
	fmt.Fprintf(w, "Jobs\t%d (done %d, degraded %d, failed %d, poison %d)\n",
		res.Jobs, res.Done, res.Degraded, res.Failed, res.Poison)
	fmt.Fprintf(w, "Workers / queue budget\t%d / %d\n", res.Workers, res.QueueBudget)
	fmt.Fprintf(w, "Submit attempts\t%d (shed %d, rate %.1f%%)\n", res.SubmitAttempts, res.Shed, 100*res.ShedRate)
	fmt.Fprintf(w, "Job latency p50 / p99\t%.1f ms / %.1f ms\n", res.P50LatencyMs, res.P99LatencyMs)
	fmt.Fprintf(w, "Saturation throughput\t%.1f jobs/s over %.2fs\n", res.JobsPerSec, res.ElapsedSec)
	fmt.Fprintf(w, "Panics recovered\t%d\n", res.PanicsRecovered)
	fmt.Fprintf(w, "Drained cleanly\t%v\n", res.DrainedCleanly)
	w.Flush()
	if !res.DrainedCleanly {
		return fmt.Errorf("daemon failed to drain")
	}
	return nil
}

func synccheck() error {
	header("§VII comparison: MC-Checker vs SyncChecker-style intra-epoch detection")
	rows, err := experiments.SyncCheckerComparison()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "App\tError location\tMC-Checker\tSyncChecker")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%v\t%v\n", r.App, r.ErrorLocation, r.MCCheckerDetects, r.SyncCheckerDetects)
	}
	return w.Flush()
}
