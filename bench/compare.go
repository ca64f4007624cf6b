package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// logEntry is one line of a -log file.
type logEntry struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendLog(path string, e logEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readLog returns the untraced runs of a -log file by workload.
func readLog(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var e logEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Result == nil {
			return nil, fmt.Errorf("%s:%d: not a log entry", path, line)
		}
		if e.Trace == 0 {
			out[e.Workload] = append(out[e.Workload], e.Result)
		}
	}
	return out, sc.Err()
}

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp benchSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// summary is a median with its quartiles, computed as Python's
// statistics.median and statistics.quantiles(n=4) compute them.
type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return summary{med, med, med}
	}
	// The "exclusive" method: quartile i sits at rank i*(n+1)/4.
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{q(1), med, q(3)}
}

func (s summary) spread() float64 { return (s.q3 - s.q1) / s.med }

// compareLogs prints, for every workload and end-to-end metric, the median
// and quartiles of run sets a and b and whether b's median is within the
// metric's bound of a's. It reports whether any metric got worse by more
// than its bound.
func compareLogs(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readLog(aPath)
	if err != nil {
		return false, err
	}
	b, err := readLog(bPath)
	if err != nil {
		return false, err
	}
	worse := false
	fmt.Fprintf(w, "%-10s %-16s %-6s %-36s %-36s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "gap", "bound", "verdict")
	for _, wl := range sp.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-10s missing: %d run(s) in A, %d in B\n", wl.Name, len(ra), len(rb))
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-10s %-16s missing\n", wl.Name, m.Name)
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			gap := (sb.med - sa.med) / sa.med // positive: B is worse
			if m.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			switch {
			case gap > m.Bound:
				verdict = "WORSE"
				worse = true
			case sa.spread() > m.Bound || sb.spread() > m.Bound:
				verdict = "unresolved (spread above bound)"
			}
			fmt.Fprintf(w, "%-10s %-16s %-6s %-36s %-36s %+7.2f%% %5.0f%%  %s\n", wl.Name, m.Name, m.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g]", sa.med, sa.q1, sa.q3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", sb.med, sb.q1, sb.q3),
				gap*100, m.Bound*100, verdict)
		}
	}
	return worse, nil
}

func values(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
