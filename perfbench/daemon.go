package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/server"
)

// clientTimeout bounds every HTTP call; a call that exceeds it counts as
// a failed operation.
const clientTimeout = 60 * time.Second

// daemon is an in-process pearld: server.New at its default worker
// count, with a disk cache in a fresh directory as `pearld -cache-dir`
// runs, served on a loopback listener and driven over HTTP only.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	dir    string
	client *http.Client
}

// startDaemon boots pearld with its cache under parent; conns caps the
// client's connections.
func startDaemon(parent string, conns int) (*daemon, error) {
	dir, err := os.MkdirTemp(parent, "pearld-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting pearld: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the daemon down, waits for both, and
// removes the cache directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serveErr := <-d.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if shutErr := d.srv.Shutdown(ctx); err == nil {
		err = shutErr
	}
	d.client.CloseIdleConnections()
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

// statusError is a non-2xx response.
type statusError struct {
	method, path string
	code         int
	body         string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.method, e.path, e.code, strings.TrimSpace(e.body))
}

// call sends one request and returns the body of a 2xx response; any
// other status is an error. Nothing is retried.
func (d *daemon) call(ctx context.Context, method, path string, payload any) ([]byte, error) {
	var body io.Reader
	if payload != nil {
		raw, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, body)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, &statusError{method: method, path: path, code: resp.StatusCode, body: string(raw)}
	}
	return raw, nil
}

// callJSON is call decoding the response into out.
func (d *daemon) callJSON(ctx context.Context, method, path string, payload, out any) error {
	raw, err := d.call(ctx, method, path, payload)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding: %w", method, path, err)
	}
	return nil
}

// waitEnd follows an SSE feed until its "end" frame and returns that
// frame's data.
func (d *daemon) waitEnd(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		return nil, &statusError{method: http.MethodGet, path: path, code: resp.StatusCode, body: string(raw)}
	}
	data, err := readEndFrame(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	// The feed closes after its end frame; reading to EOF lets the
	// connection be reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return data, nil
}

// readEndFrame scans SSE frames (single-line JSON data) for the first
// "end" event.
func readEndFrame(r io.Reader) ([]byte, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:") && event == "end":
			return []byte(strings.TrimSpace(strings.TrimPrefix(line, "data:"))), nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("event stream ended without an end frame")
}

// --- wire types: only the fields the benchmark reads ---

type workloadSpec struct {
	CPU string `json:"cpu"`
	GPU string `json:"gpu"`
}

type jobRequest struct {
	Backend       string       `json:"backend"`
	Preset        string       `json:"preset,omitempty"`
	Workload      workloadSpec `json:"workload"`
	Seed          uint64       `json:"seed"`
	WarmupCycles  int64        `json:"warmup_cycles"`
	MeasureCycles int64        `json:"measure_cycles"`
}

type batchRequest struct {
	Backend       string         `json:"backend"`
	Preset        string         `json:"preset,omitempty"`
	Workloads     []workloadSpec `json:"workloads"`
	Seed          uint64         `json:"seed"`
	Seeds         int            `json:"seeds"`
	WarmupCycles  int64          `json:"warmup_cycles"`
	MeasureCycles int64          `json:"measure_cycles"`
}

func (j simJob) workload() workloadSpec {
	return workloadSpec{CPU: j.pair.CPU.Name, GPU: j.pair.GPU.Name}
}

type jobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Error       string `json:"error"`
	Cached      bool   `json:"cached"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

// spans returns the job's queue wait (submit to start) and run (start
// to finish) as pearld stamped them.
func (s jobStatus) spans() (queue, run time.Duration, err error) {
	sub, err := time.Parse(time.RFC3339Nano, s.SubmittedAt)
	if err != nil {
		return 0, 0, err
	}
	start, err := time.Parse(time.RFC3339Nano, s.StartedAt)
	if err != nil {
		return 0, 0, err
	}
	total, err := s.total()
	if err != nil {
		return 0, 0, err
	}
	return start.Sub(sub), total - start.Sub(sub), nil
}

// total is the job's submit-to-finish span; a cache hit never starts.
func (s jobStatus) total() (time.Duration, error) {
	sub, err := time.Parse(time.RFC3339Nano, s.SubmittedAt)
	if err != nil {
		return 0, err
	}
	fin, err := time.Parse(time.RFC3339Nano, s.FinishedAt)
	if err != nil {
		return 0, err
	}
	return fin.Sub(sub), nil
}

type batchStatus struct {
	ID string `json:"id"`
}

type seriesRow struct {
	Label          string   `json:"label"`
	Points         int      `json:"points"`
	Expected       int      `json:"expected"`
	ThroughputCI95 *float64 `json:"throughput_ci95"`
}

type pointResult struct {
	State  string      `json:"state"`
	Result *pointStats `json:"result"`
}

type batchResults struct {
	Complete bool          `json:"complete"`
	Series   []seriesRow   `json:"series"`
	Points   []pointResult `json:"points"`
}

type metricsSnapshot struct {
	WorkerUtilization     float64 `json:"worker_utilization"`
	CacheHits             uint64  `json:"cache_hits"`
	CacheMisses           uint64  `json:"cache_misses"`
	ReplicaGroupsExecuted uint64  `json:"replica_groups_executed"`
	ReplicaSeedsSimulated uint64  `json:"replica_seeds_simulated"`
}

// --- operations ---

// runJob submits a job, follows its feed to the end frame, and fetches
// the result. A job ending other than "done" is an error.
func (d *daemon) runJob(ctx context.Context, j simJob) (jobStatus, []byte, error) {
	var st jobStatus
	req := jobRequest{Backend: j.backend, Preset: j.preset, Workload: j.workload(),
		Seed: j.seed, WarmupCycles: j.warmup, MeasureCycles: j.measure}
	if err := d.callJSON(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return st, nil, err
	}
	data, err := d.waitEnd(ctx, "/v1/jobs/"+st.ID+"/events")
	if err != nil {
		return st, nil, err
	}
	var end struct {
		Status jobStatus `json:"status"`
	}
	if err := json.Unmarshal(data, &end); err != nil {
		return st, nil, fmt.Errorf("job %s end frame: %w", st.ID, err)
	}
	if end.Status.State != "done" {
		return end.Status, nil, fmt.Errorf("job %s (%s) ended %s: %s", st.ID, j.key(), end.Status.State, end.Status.Error)
	}
	result, err := d.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	return end.Status, result, err
}

// decodeStats parses a job result body into its statistics.
func decodeStats(raw []byte) (pointStats, error) {
	var s pointStats
	err := json.Unmarshal(raw, &s)
	return s, err
}

func (d *daemon) scrape(ctx context.Context) (metricsSnapshot, error) {
	var m metricsSnapshot
	err := d.callJSON(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}
