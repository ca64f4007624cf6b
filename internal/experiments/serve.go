// Serve-load experiment: drive the analysis daemon through its real HTTP
// surface with many concurrent clients, a fraction of them submitting
// damaged uploads, and measure what the robustness machinery delivers
// under saturation — job latency percentiles, shed rate, and the
// guarantee that every fault lands in a per-job degraded or failed
// result rather than in a process exit.
package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// ServeLoadConfig parameterizes the load generator.
type ServeLoadConfig struct {
	// Clients is the number of concurrent submitters (default 8).
	Clients int
	// Jobs is the total number of jobs to push through (default 120).
	Jobs int
	// Workers is the daemon's analysis pool width (default GOMAXPROCS).
	Workers int
	// QueueBudget is the daemon's admission bound (default 2x Workers —
	// deliberately tight so the experiment actually saturates).
	QueueBudget int
	// FaultFraction of submissions carry damaged payloads: half
	// truncated (salvageable), half corrupt (poison). Default 0.25.
	FaultFraction float64
	// Ops sizes the per-job synthetic trace (default 256 operations).
	Ops int
}

func (c ServeLoadConfig) withDefaults() ServeLoadConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Jobs <= 0 {
		c.Jobs = 120
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueBudget <= 0 {
		c.QueueBudget = 2 * c.Workers
	}
	if c.FaultFraction <= 0 {
		c.FaultFraction = 0.25
	}
	if c.Ops <= 0 {
		c.Ops = 256
	}
	return c
}

// ServeLoadResult is what one ServeLoad run measured: shedding, job
// outcomes, latency, throughput, and whether the daemon drained.
type ServeLoadResult struct {
	Clients     int `json:"clients"`
	Jobs        int `json:"jobs"`
	Workers     int `json:"workers"`
	QueueBudget int `json:"queue_budget"`

	SubmitAttempts int     `json:"submit_attempts"`
	Shed           int     `json:"shed"`
	ShedRate       float64 `json:"shed_rate"`

	Done     int `json:"done"`
	Degraded int `json:"degraded"`
	Failed   int `json:"failed"`
	// Poison counts the corrupt submissions; each must end failed.
	Poison int `json:"poison"`

	PanicsRecovered int64 `json:"panics_recovered"`

	P50LatencyMs float64 `json:"p50_latency_ms"`
	P99LatencyMs float64 `json:"p99_latency_ms"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	JobsPerSec   float64 `json:"jobs_per_sec"`

	DrainedCleanly bool `json:"drained_cleanly"`
}

// serveLoadBodies prebuilds the three submission payloads the clients
// rotate through: clean, truncated (salvageable), and corrupt (poison).
func serveLoadBodies(ops int) (clean, truncated, corrupt []byte, err error) {
	set := SyntheticRegion(4, ops)
	ups := make([]serve.RankUpload, 0, set.Ranks())
	for _, t := range set.Traces {
		data, err := trace.EncodeTrace(t)
		if err != nil {
			return nil, nil, nil, err
		}
		ups = append(ups, serve.RankUpload{Rank: t.Rank, Data: data})
	}
	marshal := func(ups []serve.RankUpload) ([]byte, error) {
		return json.Marshal(&serve.Submission{Traces: ups})
	}
	if clean, err = marshal(ups); err != nil {
		return nil, nil, nil, err
	}
	cut := make([]serve.RankUpload, len(ups))
	copy(cut, ups)
	cut[1] = serve.RankUpload{Rank: 1, Data: ups[1].Data[:len(ups[1].Data)/2]}
	if truncated, err = marshal(cut); err != nil {
		return nil, nil, nil, err
	}
	// Corrupt: every rank's header is garbage, so nothing salvages and
	// the job is poison — it must end failed, not crash anything.
	bad := make([]serve.RankUpload, len(ups))
	for i, u := range ups {
		junk := bytes.Repeat([]byte{0xde, 0xad}, 16)
		bad[i] = serve.RankUpload{Rank: u.Rank, Data: junk}
	}
	if corrupt, err = marshal(bad); err != nil {
		return nil, nil, nil, err
	}
	return clean, truncated, corrupt, nil
}

// ServeLoad runs the experiment: start a daemon, saturate it from
// cfg.Clients concurrent HTTP clients (shed submissions are retried
// after the Retry-After hint), wait for every job, then drain. The
// whole run happens in-process against the real handler stack.
func ServeLoad(cfg ServeLoadConfig) (*ServeLoadResult, error) {
	cfg = cfg.withDefaults()
	clean, truncated, corrupt, err := serveLoadBodies(cfg.Ops)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{
		Workers:     cfg.Workers,
		QueueBudget: cfg.QueueBudget,
		JobTimeout:  30 * time.Second,
		Obs:         reg,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	var (
		mu        sync.Mutex
		latencies []time.Duration
		attempts  int
		shed      int
		misfits   int // poison jobs not failed, or other jobs not done
		res       ServeLoadResult
	)
	var ticket int64
	client := ts.Client()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*7919 + 1))
			for {
				n := atomic.AddInt64(&ticket, 1)
				if n > int64(cfg.Jobs) {
					return
				}
				body, poison := clean, false
				if r := rng.Float64(); r < cfg.FaultFraction {
					if r < cfg.FaultFraction/2 {
						body, poison = corrupt, true
					} else {
						body = truncated
					}
				}
				t0 := time.Now()
				id, err := submitUntilAdmitted(client, ts.URL, body, &mu, &attempts, &shed)
				var job serve.Job
				if err == nil {
					job, err = pollJob(client, ts.URL, id)
				}
				lat := time.Since(t0)
				mu.Lock()
				if poison {
					res.Poison++
				}
				done := err == nil && job.Status == serve.StatusDone
				if done == poison {
					misfits++
				}
				switch {
				case err != nil:
					res.Failed++
				case done:
					latencies = append(latencies, lat)
					res.Done++
					if job.Degraded {
						res.Degraded++
					}
				default:
					latencies = append(latencies, lat)
					res.Failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res.DrainedCleanly = srv.Drain(drainCtx) == nil

	snap := reg.Snapshot()
	res.Clients = cfg.Clients
	res.Jobs = cfg.Jobs
	res.Workers = cfg.Workers
	res.QueueBudget = cfg.QueueBudget
	res.SubmitAttempts = attempts
	res.Shed = shed
	if attempts > 0 {
		res.ShedRate = float64(shed) / float64(attempts)
	}
	res.PanicsRecovered = snap.CounterValue("mcchecker_serve_panics_recovered_total")
	res.ElapsedSec = elapsed.Seconds()
	if elapsed > 0 {
		res.JobsPerSec = float64(len(latencies)) / elapsed.Seconds()
	}
	res.P50LatencyMs = percentileMs(latencies, 0.50)
	res.P99LatencyMs = percentileMs(latencies, 0.99)

	if completed := res.Done + res.Failed; completed != cfg.Jobs {
		return &res, fmt.Errorf("serve load: %d of %d jobs unaccounted for", cfg.Jobs-completed, cfg.Jobs)
	}
	if misfits > 0 {
		return &res, fmt.Errorf("serve load: %d job(s) broke the rule that poison jobs fail and all others end done", misfits)
	}
	return &res, nil
}

// submitUntilAdmitted POSTs the body, honoring 429 shed responses with a
// short backoff until the daemon admits the job.
func submitUntilAdmitted(client *http.Client, base string, body []byte, mu *sync.Mutex, attempts, shed *int) (string, error) {
	for {
		resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		mu.Lock()
		*attempts++
		if resp.StatusCode == http.StatusTooManyRequests {
			*shed++
		}
		mu.Unlock()
		var out struct {
			ID string `json:"id"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			// The Retry-After hint is a full second; under a tight budget
			// with millisecond jobs, a short poll keeps the offered load
			// honest without idling the experiment.
			time.Sleep(2 * time.Millisecond)
		case resp.StatusCode != http.StatusAccepted:
			return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		case decodeErr != nil:
			return "", decodeErr
		default:
			return out.ID, nil
		}
	}
}

// pollJob long-polls one job to a terminal state.
func pollJob(client *http.Client, base, id string) (serve.Job, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := client.Get(base + "/jobs/" + id + "?wait=10s")
		if err != nil {
			return serve.Job{}, err
		}
		var out struct {
			Status   serve.Status `json:"status"`
			Degraded bool         `json:"degraded"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if decodeErr != nil {
			return serve.Job{}, decodeErr
		}
		if out.Status.Terminal() {
			return serve.Job{Status: out.Status, Degraded: out.Degraded}, nil
		}
		if time.Now().After(deadline) {
			return serve.Job{}, fmt.Errorf("job %s stuck in %s", id, out.Status)
		}
	}
}

func percentileMs(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}
