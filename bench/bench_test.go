package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// testConfig runs one set-up round and one pass of each phase.
func testConfig(t *testing.T, workload string, traced bool) config {
	return config{workload: workload, seed: 1, rounds: 1, trace: traced, out: t.TempDir()}
}

func specNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sp.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range sp.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkNames(t *testing.T, got map[string]metric, want []string) {
	t.Helper()
	var names []string
	for name := range got {
		names = append(names, name)
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q", name)
		}
	}
	sort.Strings(names)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("metrics\n  %v\nBENCHMARK.json lists\n  %v", names, want)
	}
}

// TestWorkloads runs every workload with no failed job. The traced phase
// runs on one workload of each kind: analysis only, and program in the
// job.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := specNames(t)
	traced := map[string]bool{"bugcorpus": true, "gen-mix": true}
	for _, wl := range workloadNames {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(t, wl, traced[wl])
			res, err := run(cfg, time.Now(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d jobs failed", res.Correct, res.Failed, res.Attempted)
			}
			if !cfg.trace {
				checkNames(t, res.Metrics, endToEnd)
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, m.Value)
					}
				}
				return
			}
			checkNames(t, res.Metrics, perLayer)
			if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+wl+"-seed1.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestInputHash(t *testing.T) {
	t.Parallel()
	hash := func(workload string, seed int64) string {
		inputs, _, err := buildInputs(workload, seed)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for i, in := range inputs {
			in.dir = filepath.Join(dir, strconv.Itoa(i))
			if err := produce(in); err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
		}
		h, err := hashInputs(inputs)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, wl := range []string{"fat-region", "gen-mix"} {
		one := hash(wl, 1)
		if again := hash(wl, 1); again != one {
			t.Errorf("%s: seed 1 gave inputs %s and %s", wl, one, again)
		}
		if hash(wl, 2) == one {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", wl)
		}
	}
}

func TestFailuresCounted(t *testing.T) {
	b, err := setUp(testConfig(t, "bugcorpus", false), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if b.failed != 0 {
		t.Fatalf("set-up: %v", b.failures)
	}
	flipped, truncated := b.inputs[0], b.inputs[1]
	flipped.want.clean = !flipped.want.clean
	path := filepath.Join(truncated.dir, trace.FileName(0))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.timed(); err != nil {
		t.Fatal(err)
	}
	if b.failed != 2 {
		t.Fatalf("%d failed jobs, want 2: %v", b.failed, b.failures)
	}
	for _, in := range []*input{flipped, truncated} {
		if !strings.Contains(strings.Join(b.failures, "\n"), in.name+":") {
			t.Errorf("no failure recorded for %s: %v", in.name, b.failures)
		}
	}
}

func TestSummarizeMatchesPython(t *testing.T) {
	// statistics.median and statistics.quantiles(xs, n=4) give these.
	for _, c := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, summary{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, summary{1.5, 3, 4.5}},
		{[]float64{2, 1}, summary{0.75, 1.5, 2.25}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestCompareLogs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		path := filepath.Join(dir, name)
		for i, v := range p50s {
			res := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{"job_ms_p50": {v, "ms"}}}
			if err := appendLog(path, logEntry{Workload: "bugcorpus", Seed: int64(i), Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a", 10, 10.1, 9.9)
	for _, c := range []struct {
		b     string
		worse bool
	}{
		{write("same", 10.2, 9.8, 10), false},
		{write("slower", 13, 13.1, 12.9), true},
	} {
		var out strings.Builder
		worse, err := compareLogs(&out, "../BENCHMARK.json", a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.b, worse, c.worse, out.String())
		}
	}
}
