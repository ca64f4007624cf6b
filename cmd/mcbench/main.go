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
//	mcbench -exp phases [-ranks N] [-scale S]    # analysis phase breakdown
//	mcbench -exp ablation                    # linear vs quadratic detector
//	mcbench -exp synccheck                   # SyncChecker comparison
//	mcbench -exp explore [-schedules N]      # schedule-exploration throughput
//	mcbench -exp bench [-json BENCH.json] [-benchtime T] [-amplify M] [-trace timeline.json]
//	mcbench -exp serve [-json BENCH.json] [-clients N] [-serve-jobs N] [-serve-queue N] [-fault-frac F]
//	mcbench -exp corpus [-json BENCH.json] [-corpus-programs N] [-corpus-clean N] [-seed N]
//	mcbench -exp all
//
// Global flags: -cpuprofile FILE and -memprofile FILE write pprof
// profiles of the whole invocation.
//
// Absolute times are machine-local; the reproduction targets are the
// paper's shapes: which configuration wins, by roughly what factor, and in
// which direction overhead moves with scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	"repro/internal/experiments"
	"repro/internal/obs/tracing"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|fig8|fig9|fig10|phases|ablation|synccheck|explore|bench|serve|corpus|all")
	ranks := flag.Int("ranks", 64, "rank count for fig8 (paper: 64)")
	scale := flag.Float64("scale", 1.0, "workload scale factor for fig8")
	repeats := flag.Int("repeats", 3, "timing repetitions (minimum kept)")
	luN := flag.Int("lu-n", 192, "LU matrix order for fig9/fig10 (paper: 1500)")
	paperScale := flag.Bool("paper-scale", false, "table2: use the paper's full process counts (lockopts at 64)")
	schedules := flag.Int("schedules", 2000, "schedule count for the explore experiment")
	benchJSON := flag.String("json", "BENCH.json", "bench: output path for the regression baseline")
	benchTime := flag.String("benchtime", "", "bench: -test.benchtime forwarded to the timing loops (e.g. 1x, 100ms)")
	amplify := flag.Int("amplify", 8, "bench: bug-case body repetition factor")
	tracePath := flag.String("trace", "", "bench: record the instrumented phase pass as Chrome trace JSON")
	clients := flag.Int("clients", 8, "serve: concurrent load-generator clients")
	serveJobs := flag.Int("serve-jobs", 120, "serve: total jobs to push through the daemon")
	serveQueue := flag.Int("serve-queue", 0, "serve: daemon queue budget (0 = 2x workers)")
	faultFrac := flag.Float64("fault-frac", 0.25, "serve: fraction of submissions with damaged uploads")
	corpusPrograms := flag.Int("corpus-programs", 0, "corpus: generated programs with injected bugs (0 = 3 per pattern)")
	corpusClean := flag.Int("corpus-clean", 0, "corpus: clean generated programs (0 = 200)")
	corpusSeed := flag.Uint64("seed", 1, "corpus: base seed for program generation")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stopCPU := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
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
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
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

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "mcbench %s: %v\n", name, err)
			finish()
			os.Exit(1)
		}
	}

	run("table1", table1)
	run("table2", func() error { return table2(*paperScale) })
	run("fig8", func() error { return fig8(*ranks, *scale, *repeats) })
	run("fig9", func() error { return fig9and10(*luN, *repeats, true, *exp == "all") })
	run("fig10", func() error {
		if *exp == "all" {
			return nil // fig9 already printed it
		}
		return fig9and10(*luN, *repeats, false, true)
	})
	run("phases", func() error { return phases(*ranks, *scale) })
	run("weak", func() error { return weakScaling(*repeats) })
	run("ablation", ablation)
	run("synccheck", synccheck)
	run("explore", func() error { return exploreThroughput(*schedules) })
	if *exp == "bench" { // excluded from "all": it re-times what the others already print
		run("bench", func() error { return bench(*benchJSON, *benchTime, *amplify, *tracePath) })
	}
	if *exp == "serve" { // excluded from "all": saturating the daemon takes a while
		run("serve", func() error {
			return serveLoad(*benchJSON, *clients, *serveJobs, *serveQueue, *faultFrac)
		})
	}
	if *exp == "corpus" { // excluded from "all": the 200-program clean gate takes a while
		run("corpus", func() error {
			return corpusScore(*benchJSON, *corpusPrograms, *corpusClean, *corpusSeed)
		})
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

func phases(ranks int, scale float64) error {
	header(fmt.Sprintf("Analysis phase breakdown, %d ranks (observability spans)", ranks))
	rows, err := experiments.PhaseBreakdown(ranks, scale)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "App\tEvents\tModel\tMatch\tDAG\tEpochs\tIntra\tCross\tAnalysis\tEvents/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\t%v\t%v\t%v\t%.0f\n",
			r.App, r.Events,
			r.Model.Round(10_000), r.Match.Round(10_000), r.DAG.Round(10_000),
			r.Epochs.Round(10_000), r.DetectIntra.Round(10_000), r.DetectCross.Round(10_000),
			r.Analysis.Round(10_000), r.EventsPerSec)
	}
	return w.Flush()
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

func bench(jsonPath, benchTime string, amplify int, tracePath string) error {
	header("Benchmark-regression harness (hot paths, amplified Table II corpora)")
	var tr *tracing.Recorder
	if tracePath != "" {
		tr = tracing.New()
	}
	res, err := experiments.Bench(experiments.BenchConfig{Amplify: amplify, BenchTime: benchTime, Trace: tr})
	if err != nil {
		return err
	}
	if tr != nil {
		f, err := os.Create(tracePath)
		if err == nil {
			err = tr.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
		fmt.Printf("wrote timeline (%d events) to %s — open in https://ui.perfetto.dev\n", tr.Len(), tracePath)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Measurement\tns/op\tB/op\tallocs/op\tevents/s")
	line := func(name string, s experiments.BenchStat) {
		fmt.Fprintf(w, "%s\t%.0f\t%d\t%d\t%.0f\n", name, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp, s.EventsPerSec)
	}
	line("decode (pooled)", res.Decode.Pooled)
	line("decode (pool off)", res.Decode.Unpooled)
	line("signature", res.Signature)
	line("analyze (workers=1)", res.Analyze.Workers1)
	line(fmt.Sprintf("analyze (workers=%d)", res.Analyze.MaxWorkers), res.Analyze.WorkersMax)
	line("cross-process linear", res.Cross.Linear)
	line("cross-process quadratic", res.Cross.Quadratic)
	line("cross-process shadow", res.Shadow.Shadow)
	line("cross-process pairwise", res.Shadow.Pairwise)
	w.Flush()
	fmt.Printf("decode alloc reduction: %.1f%% (ns/op %+.1f%%)  analyze speedup: %.2fx (GOMAXPROCS=%d, cpus=%d)  linear vs quadratic: %.1fx\n",
		res.Decode.AllocReductionPct, res.Decode.NsPerOpDeltaPct, res.Analyze.Speedup, res.GOMAXPROCS, res.NumCPU, res.Cross.Speedup)
	fmt.Printf("shadow vs pairwise: %.1fx on %d ops across %d ranks (agreement=%v)\n",
		res.Shadow.Speedup, res.Shadow.Ops, res.Shadow.Ranks, res.Shadow.Agreement)
	if err := mergeBenchJSON(jsonPath, res, "serve", "corpus"); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}

// mergeBenchJSON writes `section` into jsonPath, preserving the listed
// other top-level keys from an existing file — so `-exp bench` and
// `-exp serve` each own their part of BENCH.json without wiping the
// other's baseline. With a struct section, its own fields replace the
// file's; a corrupt existing file is rewritten from scratch.
func mergeBenchJSON(jsonPath string, section any, preserve ...string) error {
	kept := map[string]json.RawMessage{}
	if old, err := os.ReadFile(jsonPath); err == nil {
		var prev map[string]json.RawMessage
		if json.Unmarshal(old, &prev) == nil {
			for _, k := range preserve {
				if v, ok := prev[k]; ok {
					kept[k] = v
				}
			}
		}
	}
	data, err := json.Marshal(section)
	if err != nil {
		return err
	}
	merged := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &merged); err != nil {
		return err
	}
	for k, v := range kept {
		if _, ok := merged[k]; !ok {
			merged[k] = v
		}
	}
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(out, '\n'), 0o644)
}

// serveLoad drives the analysis daemon to saturation with concurrent,
// partly fault-injected clients and folds the latency/shed numbers into
// BENCH.json next to the bench section.
func serveLoad(jsonPath string, clients, jobs, queue int, faultFrac float64) error {
	header("Serve-load: daemon under concurrent, fault-injected submissions")
	res, err := experiments.ServeLoad(experiments.ServeLoadConfig{
		Clients: clients, Jobs: jobs, QueueBudget: queue, FaultFraction: faultFrac,
	})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Clients\t%d\n", res.Clients)
	fmt.Fprintf(w, "Jobs\t%d (done %d, degraded %d, quarantined %d, failed %d)\n",
		res.Jobs, res.Done, res.Degraded, res.Quarantined, res.Failed)
	fmt.Fprintf(w, "Workers / queue budget\t%d / %d\n", res.Workers, res.QueueBudget)
	fmt.Fprintf(w, "Submit attempts\t%d (shed %d, rate %.1f%%)\n", res.SubmitAttempts, res.Shed, 100*res.ShedRate)
	fmt.Fprintf(w, "Job latency p50 / p99\t%.1f ms / %.1f ms\n", res.P50LatencyMs, res.P99LatencyMs)
	fmt.Fprintf(w, "Saturation throughput\t%.1f jobs/s over %.2fs\n", res.JobsPerSec, res.ElapsedSec)
	fmt.Fprintf(w, "Panics recovered / retries\t%d / %d\n", res.PanicsRecovered, res.Retries)
	fmt.Fprintf(w, "Drained cleanly\t%v\n", res.DrainedCleanly)
	w.Flush()
	if !res.DrainedCleanly {
		return fmt.Errorf("daemon failed to drain")
	}
	if err := mergeBenchJSON(jsonPath, map[string]any{"serve": res},
		"corpus", "gomaxprocs", "num_cpu", "amplify", "benchtime", "decode", "signature", "analyze", "phases", "cross_process", "shadow_vs_pairwise"); err != nil {
		return err
	}
	fmt.Printf("wrote serve section to %s\n", jsonPath)
	return nil
}

// corpusScore runs the differential engine-scoring harness and folds the
// detection matrix into BENCH.json next to the bench and serve sections.
func corpusScore(jsonPath string, programs, clean int, seed uint64) error {
	header("Corpus: differential engine scoring over planted and injected bugs")
	res, err := experiments.Corpus(experiments.CorpusConfig{
		Generated: programs, Clean: clean, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.MarkdownMatrix())
	if !res.Gate {
		return fmt.Errorf("differential gate failed (apps=%v fixed=%v generated=%v clean=%v)",
			res.AppsCaught, res.AppsFixedClean, res.GeneratedCaught, res.CleanOK)
	}
	if err := mergeBenchJSON(jsonPath, map[string]any{"corpus": res},
		"serve", "gomaxprocs", "num_cpu", "amplify", "benchtime", "decode", "signature", "analyze", "phases", "cross_process", "shadow_vs_pairwise"); err != nil {
		return err
	}
	fmt.Printf("wrote corpus section to %s\n", jsonPath)
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
