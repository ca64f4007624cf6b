package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/trace"
)

func TestFindApp(t *testing.T) {
	for _, name := range []string{"emulate", "lockopts", "jacobi", "counter", "jacobi2d", "schedrace"} {
		bc, ok := findApp(name)
		if !ok || bc.Name != name {
			t.Errorf("findApp(%q) = %v, %v", name, bc.Name, ok)
		}
	}
	if _, ok := findApp("nope"); ok {
		t.Error("unknown app found")
	}
}

func TestListApps(t *testing.T) {
	out := captureStdout(t, listApps)
	for _, bc := range apps.AllCases() {
		if !strings.Contains(out, bc.Name) {
			t.Errorf("listApps output missing registered case %q", bc.Name)
		}
	}
}

func writeDemoTrace(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		win := p.Alloc(16, "w")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(mpi.AssertNone)
		w.Fence(mpi.AssertNone)
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteDir(dir, sink.Set()); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAnalyzeCmdCleanTrace(t *testing.T) {
	dir := writeDemoTrace(t)
	// Clean trace: analyzeCmd must not exit and must not error.
	if err := analyzeCmd([]string{"-trace", dir}); err != nil {
		t.Fatal(err)
	}
	if err := analyzeCmd([]string{"-trace", dir, "-json"}); err != nil {
		t.Fatal(err)
	}
	if err := analyzeCmd([]string{"-trace", dir, "-intra-only"}); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	out, err := captureStdoutErr(t, f)
	if err != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", err, out)
	}
	return out
}

// captureStdoutErr runs f with stdout captured and returns what f printed
// and the error it returned.
func captureStdoutErr(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := f()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	return out, ferr
}

func TestRunCmdStats(t *testing.T) {
	// The fixed variant reports no errors, so printReport does not exit.
	out := captureStdout(t, func() error {
		return runCmd([]string{"-app", "emulate", "-fixed", "-stats"})
	})
	// Per-phase wall times and simulator/profiler counters must be printed.
	for _, want := range []string{
		"--- run stats ---",
		`mcchecker_phase_seconds{phase="model"}`,
		`mcchecker_phase_seconds{phase="match"}`,
		`mcchecker_phase_seconds{phase="detect_cross"}`,
		"mcchecker_sim_messages_total",
		"mcchecker_profiler_events_total",
		"mcchecker_analysis_events_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q", want)
		}
	}
}

func TestRunCmdStatsProm(t *testing.T) {
	out := captureStdout(t, func() error {
		return runCmd([]string{"-app", "emulate", "-fixed", "-stats", "-stats-format", "prom"})
	})
	if !strings.Contains(out, "# TYPE mcchecker_phase_seconds summary") {
		t.Errorf("prom output missing phase summary:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE mcchecker_sim_epochs_total counter") {
		t.Errorf("prom output missing epoch counter family:\n%s", out)
	}
}

func TestRunCmdStatsJSONEmbeds(t *testing.T) {
	out := captureStdout(t, func() error {
		return runCmd([]string{"-app", "emulate", "-fixed", "-json", "-stats"})
	})
	var rep struct {
		Stats *struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if rep.Stats == nil || len(rep.Stats.Counters) == 0 || len(rep.Stats.Spans) == 0 {
		t.Errorf("stats not embedded in JSON report:\n%s", out)
	}
}

func TestStatsRegistryValidation(t *testing.T) {
	if _, err := statsRegistry(true, "yaml"); err == nil {
		t.Error("bad format must be rejected")
	}
	if reg, err := statsRegistry(false, "text"); err != nil || reg != nil {
		t.Error("disabled stats must yield a nil registry")
	}
	if reg, err := statsRegistry(true, "prom"); err != nil || reg == nil {
		t.Error("enabled stats must yield a registry")
	}
}

func TestAnalyzeCmdStats(t *testing.T) {
	dir := writeDemoTrace(t)
	out := captureStdout(t, func() error {
		return analyzeCmd([]string{"-trace", dir, "-stats"})
	})
	for _, want := range []string{
		`mcchecker_phase_seconds{phase="model"}`,
		"mcchecker_trace_decoded_events_total",
		"mcchecker_analysis_events_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze stats output missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeCmdErrors(t *testing.T) {
	if err := analyzeCmd([]string{}); err == nil {
		t.Error("missing -trace must error")
	}
	if err := analyzeCmd([]string{"-trace", filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("missing dir must error")
	}
}

// Two runs with the same fault seed must print byte-identical JSON
// reports — the determinism contract of the fault plan.
func TestRunCmdFaultsDeterministic(t *testing.T) {
	args := []string{"-app", "jacobi", "-fixed", "-json", "-faults", "seed=7,yield=30,reorder"}
	a := captureStdout(t, func() error { return runCmd(args) })
	b := captureStdout(t, func() error { return runCmd(args) })
	if a != b {
		t.Fatalf("same seed, different reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, `"violations"`) {
		t.Fatalf("no JSON report printed:\n%s", a)
	}
}

// An injected crash still yields a report, marked degraded.
func TestRunCmdCrashFaultDegrades(t *testing.T) {
	out := captureStdout(t, func() error {
		return runCmd([]string{"-app", "emulate", "-fixed", "-faults", "seed=1,crash=0@10"})
	})
	for _, want := range []string{"run degraded", "crashed by fault injection", "DEGRADED"} {
		if !strings.Contains(out, want) {
			t.Errorf("crash-fault output missing %q:\n%s", want, out)
		}
	}
}

// A truncation fault cuts both the analyzed set and the written files, so
// a later offline analyze faces the same damage — and salvages it.
func TestRunCmdTruncFaultAndAnalyzeSalvage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	out := captureStdout(t, func() error {
		return runCmd([]string{"-app", "emulate", "-fixed", "-trace", dir,
			"-faults", "trunc=0.5@1"})
	})
	if !strings.Contains(out, "DEGRADED") {
		t.Fatalf("truncated run not marked degraded:\n%s", out)
	}
	out = captureStdout(t, func() error {
		return analyzeCmd([]string{"-trace", dir})
	})
	if !strings.Contains(out, "DEGRADED") {
		t.Fatalf("analyze of truncated files not marked degraded:\n%s", out)
	}
}

func TestRunCmdSoak(t *testing.T) {
	out := captureStdout(t, func() error {
		return runCmd([]string{"-app", "emulate", "-fixed", "-soak", "4"})
	})
	if !strings.Contains(out, "soak: 4 iterations, reports identical") {
		t.Fatalf("soak output:\n%s", out)
	}
}

func TestRunCmdFlagValidation(t *testing.T) {
	if err := runCmd([]string{"-app", "emulate", "-faults", "crash=oops"}); err == nil {
		t.Error("bad fault DSL must be rejected")
	}
	if err := runCmd([]string{"-app", "emulate", "-soak", "2", "-online"}); err == nil {
		t.Error("-soak with -online must be rejected")
	}
	if err := runCmd([]string{"-app", "emulate", "-soak", "2", "-trace", t.TempDir()}); err == nil {
		t.Error("-soak with -trace must be rejected")
	}
	// emulate runs on 2 ranks: a clause naming rank 99 would inject nothing.
	for _, plan := range []string{"crash=99@1", "trunc=0.5@99", "delay=99@0,reorder"} {
		if err := runCmd([]string{"-app", "emulate", "-fixed", "-faults", plan}); err == nil {
			t.Errorf("-faults %q names a rank outside the world and must be rejected", plan)
		}
	}
	// The online pipeline never holds a trace set to write or truncate.
	if err := runCmd([]string{"-app", "emulate", "-fixed", "-online", "-trace", t.TempDir()}); err == nil {
		t.Error("-online with a -trace directory must be rejected")
	}
	if err := runCmd([]string{"-app", "emulate", "-fixed", "-online", "-faults", "trunc=0.3@1"}); err == nil {
		t.Error("-online with a truncation fault must be rejected")
	}
	// A negative count or duration is an error naming the flag, not the
	// default value (nor, for -timeout, a watchdog that has already fired).
	for _, args := range [][]string{{"-ranks", "-3"}, {"-soak", "-2"}, {"-timeout", "-5s"}} {
		err := runCmd(append([]string{"-app", "emulate", "-fixed"}, args...))
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+" ") {
			t.Errorf("run %s %s: err = %v, want an error naming %s", args[0], args[1], err, args[0])
		}
	}
}

// TestMain runs the mcchecker command itself when the test binary gets
// arguments after "--" (see runMain), so a test can run a command that
// ends in the findings exit.
func TestMain(m *testing.M) {
	flag.Parse()
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"mcchecker"}, args...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs `mcchecker args...` in a child process and returns its
// stdout and exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stdout.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), 0
}

// A crashed run gives one report: every survivor names the crashed rank,
// whichever dead peer it noticed first, and the run's errors come in rank
// order. Offline and online, 20 runs each print one degraded list.
func TestRunCmdCrashReportDeterministic(t *testing.T) {
	for _, mode := range [][]string{nil, {"-online"}} {
		lists := map[string]int{}
		for i := 0; i < 20; i++ {
			args := append([]string{"run", "-app", "jacobi", "-faults", "crash=1@20", "-json"}, mode...)
			out, code := runMain(t, args...)
			if code != 0 && code != 3 {
				t.Fatalf("%v: exit %d\n%s", args, code, out)
			}
			var rep struct {
				Degraded []string `json:"degraded"`
			}
			if err := json.Unmarshal([]byte(out), &rep); err != nil || len(rep.Degraded) == 0 {
				t.Fatalf("%v: no degraded JSON report (%v):\n%s", args, err, out)
			}
			lists[strings.Join(rep.Degraded, "\n")]++
		}
		if len(lists) != 1 {
			t.Errorf("mode %v: %d different degraded lists in 20 runs: %q", mode, len(lists), lists)
		}
	}
}

// The fixed schedrace variant stays clean across a sweep, so exploreCmd
// neither errors nor exits (findings would exit 3, untestable in-process).
func TestExploreCmdFixedClean(t *testing.T) {
	out := captureStdout(t, func() error {
		return exploreCmd([]string{"-app", "schedrace", "-fixed", "-schedules", "8"})
	})
	if !strings.Contains(out, "no violations under any explored schedule") {
		t.Fatalf("explore output:\n%s", out)
	}
}

func TestExploreCmdJSON(t *testing.T) {
	out := captureStdout(t, func() error {
		return exploreCmd([]string{"-app", "schedrace", "-fixed", "-schedules", "6",
			"-json", "-stats"})
	})
	var res struct {
		Strategy  string `json:"strategy"`
		Schedules int    `json:"schedules"`
		Distinct  int    `json:"distinct"`
		Findings  []any  `json:"findings"`
		Stats     *struct {
			Counters []any `json:"counters"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if res.Strategy != "sweep" || res.Schedules != 6 || res.Distinct != 0 || len(res.Findings) != 0 {
		t.Errorf("unexpected explore JSON: %+v\n%s", res, out)
	}
	if res.Stats == nil || len(res.Stats.Counters) == 0 {
		t.Errorf("stats not embedded in explore JSON:\n%s", out)
	}
}

func TestExploreCmdValidation(t *testing.T) {
	if err := exploreCmd([]string{"-app", "nope"}); err == nil {
		t.Error("unknown app must be rejected")
	}
	for _, args := range [][]string{{"-n", "-2"}, {"-budget", "-1s"}, {"-timeout", "-1s"},
		{"-schedules", "-3"}, {"-schedules", "0"}, {"-jobs", "-1"}} {
		err := exploreCmd(append([]string{"-app", "schedrace", "-fixed", "-schedules", "2"}, args...))
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+" ") {
			t.Errorf("explore %s %s: err = %v, want an error naming %s", args[0], args[1], err, args[0])
		}
	}
}

// A damaged directory cannot be analyzed strictly; analyze still produces
// a (degraded) report from what the one salvage read recovered.
func TestAnalyzeCmdSalvageFallback(t *testing.T) {
	dir := writeDemoTrace(t)
	path := filepath.Join(dir, trace.FileName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return analyzeCmd([]string{"-trace", dir})
	})
	if !strings.Contains(out, "DEGRADED") {
		t.Fatalf("salvaged analyze not marked degraded:\n%s", out)
	}
}

func TestDumpCmd(t *testing.T) {
	dir := writeDemoTrace(t)
	set, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	dump := func(args ...string) string {
		t.Helper()
		return captureStdout(t, func() error { return dumpCmd(append([]string{"-trace", dir}, args...)) })
	}
	// jsonl parses back to the selected events: every rank, or rank 1's
	// first two.
	jsonl := func(args ...string) *trace.Set {
		t.Helper()
		got, err := trace.ReadJSONL(strings.NewReader(dump(append(args, "-format", "jsonl")...)))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := jsonl(); got.TotalEvents() != set.TotalEvents() || got.Ranks() != set.Ranks() {
		t.Errorf("jsonl dump holds %d events of %d ranks, want %d of %d",
			got.TotalEvents(), got.Ranks(), set.TotalEvents(), set.Ranks())
	}
	if got := jsonl("-rank", "1", "-limit", "2"); got.TotalEvents() != 2 || len(got.Traces[1].Events) != 2 {
		t.Errorf("jsonl dump of rank 1 limited to 2 holds %d events, %d of rank 1",
			got.TotalEvents(), len(got.Traces[got.Ranks()-1].Events))
	}
	out := dump()
	for r := range set.Traces {
		if head := fmt.Sprintf("--- rank %d: %d events ---", r, len(set.Traces[r].Events)); !strings.Contains(out, head) {
			t.Errorf("text dump lacks %q:\n%s", head, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(dump("-rank", "1", "-limit", "2")), "\n")
	more := fmt.Sprintf("... %d more", len(set.Traces[1].Events)-2)
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "--- rank 1: ") || lines[3] != more {
		t.Errorf("text dump of rank 1 limited to 2: want a header, 2 events and %q, got:\n%s",
			more, strings.Join(lines, "\n"))
	}
	if err := dumpCmd([]string{"-trace", dir, "-format", "json"}); err == nil {
		t.Error("unknown -format must error")
	}
	if err := dumpCmd([]string{}); err == nil {
		t.Error("missing -trace must error")
	}
	// A negative limit or a rank below -1 is an error naming the flag, not
	// a dump of everything.
	for _, args := range [][]string{{"-limit", "-1"}, {"-rank", "-5"}} {
		err := dumpCmd(append([]string{"-trace", dir}, args...))
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+" ") {
			t.Errorf("dump %s %s: err = %v, want an error naming %s", args[0], args[1], err, args[0])
		}
	}
	// A rank at or past the trace's rank count is an error naming -rank
	// and the count, given before any output, not an empty dump.
	count := fmt.Sprintf("%d rank", set.Ranks())
	for _, rank := range []string{strconv.Itoa(set.Ranks()), "7"} {
		for _, format := range []string{"text", "jsonl"} {
			out, err := captureStdoutErr(t, func() error {
				return dumpCmd([]string{"-trace", dir, "-rank", rank, "-format", format})
			})
			if err == nil || !strings.HasPrefix(err.Error(), "-rank ") || !strings.Contains(err.Error(), count) || out != "" {
				t.Errorf("dump -rank %s -format %s: err = %v, output %q; want an error naming -rank and %q, and no output",
					rank, format, err, out, count)
			}
		}
	}
}

// TestServeCmdValidation: a negative pool width, queue budget or timeout
// is an error naming the flag, given before the daemon listens. The
// address cannot be listened on, so a command that got past the check
// fails on it instead of serving.
func TestServeCmdValidation(t *testing.T) {
	for _, args := range [][]string{{"-workers", "-1"}, {"-queue", "-2"},
		{"-job-timeout", "-1s"}, {"-drain-timeout", "-1s"}} {
		err := serveCmd(append([]string{"-addr", "127.0.0.1:-1"}, args...))
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+" ") {
			t.Errorf("serve %s %s: err = %v, want an error naming %s", args[0], args[1], err, args[0])
		}
	}
}

// The emulate bug fires on the default schedule, so its static diagnostic
// must be confirmed by the dynamic run.
func TestAnalyzeCmdStaticConfirmed(t *testing.T) {
	out := captureStdout(t, func() error {
		return analyzeCmd([]string{"-static", "-app", "emulate"})
	})
	for _, want := range []string{
		"== emulate: 1 confirmed, 0 static-only, 0 dynamic-only ==",
		"get-origin-use/high",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("static cross-validation output missing %q:\n%s", want, out)
		}
	}
}

// The schedrace bug needs a hostile schedule, so the default dynamic run
// stays clean and the static finding is classified static-only — the case
// `explore -static-seed` exists for.
func TestAnalyzeCmdStaticOnly(t *testing.T) {
	out := captureStdout(t, func() error {
		return analyzeCmd([]string{"-static", "-app", "schedrace"})
	})
	if !strings.Contains(out, "== schedrace: 0 confirmed, 1 static-only, 0 dynamic-only ==") {
		t.Errorf("schedrace must be static-only on the default schedule:\n%s", out)
	}
}

func TestAnalyzeCmdStaticFixedClean(t *testing.T) {
	out := captureStdout(t, func() error {
		return analyzeCmd([]string{"-static", "-app", "emulate", "-fixed",
			"-min-confidence", "high"})
	})
	if !strings.Contains(out, "== emulate: 0 confirmed, 0 static-only, 0 dynamic-only ==") {
		t.Errorf("fixed emulate must be clean at high confidence:\n%s", out)
	}
}

func TestAnalyzeCmdStaticJSON(t *testing.T) {
	out := captureStdout(t, func() error {
		return analyzeCmd([]string{"-static", "-app", "emulate", "-json", "-stats"})
	})
	var res struct {
		Apps []struct {
			App       string `json:"app"`
			Confirmed []struct {
				Kind string `json:"kind"`
				Rule string `json:"rule"`
			} `json:"confirmed"`
		} `json:"apps"`
		Stats *struct {
			Counters []struct {
				Name string `json:"name"`
			} `json:"counters"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-static -json output is not valid JSON: %v\n%s", err, out)
	}
	if len(res.Apps) != 1 || res.Apps[0].App != "emulate" || len(res.Apps[0].Confirmed) != 1 {
		t.Errorf("unexpected cross-validation JSON: %+v\n%s", res, out)
	}
	if res.Stats == nil {
		t.Fatalf("stats not embedded:\n%s", out)
	}
	foundStatic := false
	for _, c := range res.Stats.Counters {
		if strings.HasPrefix(c.Name, "mcchecker_static_") {
			foundStatic = true
		}
	}
	if !foundStatic {
		t.Errorf("mcchecker_static_* counters missing from stats:\n%s", out)
	}
}

func TestAnalyzeCmdStaticValidation(t *testing.T) {
	if err := analyzeCmd([]string{"-static", "-app", "nope"}); err == nil {
		t.Error("unknown app must be rejected")
	}
	if err := analyzeCmd([]string{"-static", "-min-confidence", "shaky"}); err == nil {
		t.Error("bad confidence must be rejected")
	}
}

// -static-seed on the fixed variant finds no static diagnostics, so the
// seeding degrades to the plain sweep with a notice — and stays clean.
// (The hinted path with real hints is covered by the explore package's
// TestHintedCatchesScheduleBug; the buggy CLI path exits 3 on findings,
// which is untestable in-process.)
func TestExploreCmdStaticSeedFixedClean(t *testing.T) {
	out := captureStdout(t, func() error {
		return exploreCmd([]string{"-app", "schedrace", "-fixed", "-schedules", "8",
			"-static-seed"})
	})
	for _, want := range []string{"no rank hints", "no violations under any explored schedule"} {
		if !strings.Contains(out, want) {
			t.Errorf("static-seed explore output missing %q:\n%s", want, out)
		}
	}
}

// TestUsageNamesEveryCommand pins the help contract: the top-level usage
// text renders from the command table, so every dispatchable subcommand
// must appear in it with a summary and every synopsis line.
func TestUsageNamesEveryCommand(t *testing.T) {
	var sb strings.Builder
	usage(&sb)
	help := sb.String()

	cmds := commands()
	if len(cmds) == 0 {
		t.Fatal("empty command table")
	}
	for _, c := range cmds {
		if c.summary == "" {
			t.Errorf("%s: no summary", c.name)
		}
		if len(c.synopsis) == 0 {
			t.Errorf("%s: no synopsis", c.name)
		}
		if c.run == nil {
			t.Errorf("%s: no run function", c.name)
		}
		if !strings.Contains(help, c.name+" ") && !strings.Contains(help, c.name+"\n") {
			t.Errorf("usage text does not name %q:\n%s", c.name, help)
		}
		for _, line := range c.synopsis {
			if !strings.Contains(help, line) {
				t.Errorf("usage text missing synopsis line %q", line)
			}
		}
	}

	// The full expected command set, spelled out so dropping a command
	// from the table (which would silently drop it from help) fails too.
	for _, want := range []string{"apps", "run", "explore", "analyze", "corpus", "serve", "dump"} {
		found := false
		for _, c := range cmds {
			if c.name == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("command table is missing %q", want)
		}
	}
}

// TestCommandNamesUnique: duplicate names would shadow each other in the
// dispatch loop.
func TestCommandNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range commands() {
		if seen[c.name] {
			t.Errorf("duplicate command %q", c.name)
		}
		seen[c.name] = true
	}
}

// TestCorpusCmdGate runs the differential scoring CLI at smoke scale:
// the gate passes (no exit 3), the matrix is written, and -json parses.
func TestCorpusCmdGate(t *testing.T) {
	matrixPath := filepath.Join(t.TempDir(), "matrix.md")
	out := captureStdout(t, func() error {
		return corpusCmd([]string{"-programs", "2", "-clean", "3", "-schedules", "4",
			"-matrix", matrixPath})
	})
	for _, want := range []string{"Registry corpus", "Generated programs", "Gate:"} {
		if !strings.Contains(out, want) {
			t.Errorf("corpus output missing %q:\n%s", want, out)
		}
	}
	matrix, err := os.ReadFile(matrixPath)
	if err != nil {
		t.Fatalf("matrix artifact not written: %v", err)
	}
	if !strings.Contains(string(matrix), "| Case | Ranks | Class |") {
		t.Errorf("matrix artifact malformed:\n%s", matrix)
	}
	if err := corpusCmd([]string{"-programs", "2", "-clean", "3", "-schedules", "4", "extra"}); err == nil {
		t.Error("positional arguments must be rejected")
	}
	for _, args := range [][]string{{"-programs", "-1"}, {"-clean", "-1"}, {"-schedules", "-1"}} {
		err := corpusCmd(append([]string{"-programs", "2", "-clean", "3", "-schedules", "4"}, args...))
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+" ") {
			t.Errorf("corpus %s %s: err = %v, want an error naming %s", args[0], args[1], err, args[0])
		}
	}
}

// TestFixCmdJSON runs the repair CLI on one case: the JSON result is
// verified and carries no interpreter fields, and the written patch names
// its file by the path from the repository root, where `git apply` runs.
func TestFixCmdJSON(t *testing.T) {
	dir := t.TempDir()
	out := captureStdout(t, func() error {
		return fixCmd([]string{"-app", "stride-overlap", "-json", "-diff-dir", dir})
	})
	var results []map[string]any
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("fix -json output does not parse: %v\n%s", err, out)
	}
	if len(results) != 1 || results[0]["verified"] != true {
		t.Fatalf("want one verified result, got:\n%s", out)
	}
	for key := range results[0] {
		if strings.HasPrefix(key, "interp_") {
			t.Errorf("result carries the removed key %q", key)
		}
	}
	patch, err := os.ReadFile(filepath.Join(dir, "stride-overlap.patch"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "--- a/internal/apps/corpus.go\n+++ b/internal/apps/corpus.go\n"; !strings.HasPrefix(string(patch), want) {
		t.Errorf("patch header does not name internal/apps/corpus.go:\n%s", patch)
	}
	if err := fixCmd([]string{"-app", "stride-overlap", "-schedules", "-1"}); err == nil ||
		!strings.HasPrefix(err.Error(), "-schedules ") {
		t.Errorf("fix -schedules -1: err = %v, want an error naming -schedules", err)
	}
}

var errWrite = errors.New("write refused")

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

// A -stats section that cannot be written must fail the command, in every
// -stats-format.
func TestWriteStatsReturnsWriteError(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("mcchecker_trace_decoded_events_total").Add(1)
	snap := reg.Snapshot()
	for _, format := range []string{"text", "prom", "json"} {
		if err := writeStats(failWriter{}, snap, format); !errors.Is(err, errWrite) {
			t.Errorf("-stats-format %s: err = %v, want the writer's error", format, err)
		}
	}
}
