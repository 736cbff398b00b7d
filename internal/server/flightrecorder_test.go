package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"f2/internal/obs"
	"f2/internal/store"
)

// syncBuffer is a goroutine-safe log sink: the watchdog, background
// flushes, and request handlers all log concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newFlightServer starts a durable server with flight-recorder options
// tuned for tests, returning the server before the httptest wrapper so
// callers can install the flush hook before any request flows.
func newFlightServer(t *testing.T, dir string, mutate func(*Options)) (*Server, *httptest.Server, *syncBuffer) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	logs := &syncBuffer{}
	opts := Options{
		Workers:      2,
		AttackTrials: 200,
		VerifyProbes: 50,
		Store:        st,
		Logger:       slog.New(slog.NewJSONHandler(logs, nil)),
	}
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})
	return srv, ts, logs
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// hookFlush installs a fault-injection gate on flush jobs: every job
// blocks on the returned release func's channel, and entered closes when
// the first job reaches the gate.
func hookFlush(srv *Server) (entered chan struct{}, release func()) {
	entered = make(chan struct{})
	releaseCh := make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	srv.testFlushHook = func() {
		enterOnce.Do(func() { close(entered) })
		<-releaseCh
	}
	return entered, func() { releaseOnce.Do(func() { close(releaseCh) }) }
}

// flushTrigger is how startHungFlush sets its flush off.
type flushTrigger string

const (
	// byAppend: an append that crosses the auto-flush threshold.
	byAppend flushTrigger = "append"
	// byWait: POST /flush?wait=1, issued from a goroutine because it
	// blocks until the flush finishes.
	byWait flushTrigger = "wait"
)

var flushTriggers = []flushTrigger{byAppend, byWait}

// createBuffered creates a dataset whose appends stay pending: with a
// 0.9 flush fraction, a couple of rows never cross the auto-flush
// threshold.
func createBuffered(t *testing.T, base string) string {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/v1/datasets", map[string]any{
		"columns":       []string{"G", "ID"},
		"rows":          [][]string{{"g1", "id1"}, {"g1", "id2"}, {"g1", "id3"}, {"g2", "id4"}, {"g2", "id5"}},
		"alpha":         0.25,
		"keySeed":       "server-test-key",
		"flushFraction": 0.9,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var created struct {
		Dataset Summary `json:"dataset"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	return created.Dataset.ID
}

// startHungFlush creates a dataset, sets a flush off by trigger, and
// returns once the flush is blocked inside the fault-injection hook.
// release unblocks it; under byWait it also waits for the ?wait=1 answer
// and fails the test unless it is 200.
func startHungFlush(t *testing.T, srv *Server, ts *httptest.Server, trigger flushTrigger) (id string, release func()) {
	t.Helper()
	entered, unblock := hookFlush(srv)
	rows := [][]string{
		{"g1", "id1"}, {"g1", "id2"}, {"g1", "id3"},
		{"g2", "id4"}, {"g2", "id5"},
	}
	if trigger == byWait {
		id = createBuffered(t, ts.URL)
	} else {
		id = createDataset(t, ts.URL, []string{"G", "ID"}, rows)
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"g1", "id6"}, {"g2", "id7"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}
	release = unblock
	if trigger == byWait {
		waited := make(chan string, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/flush?wait=1", "application/json", nil)
			if err != nil {
				waited <- err.Error()
				return
			}
			resp.Body.Close()
			waited <- resp.Status
		}()
		var once sync.Once
		release = func() {
			once.Do(func() {
				unblock()
				if got := <-waited; got != "200 OK" {
					t.Errorf("flush?wait=1 answered %s, want 200 OK", got)
				}
			})
		}
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		release()
		t.Fatalf("flush set off by %s never reached the fault-injection hook", trigger)
	}
	return id, release
}

// readyzStatus fetches /readyz and returns the HTTP status.
func readyzStatus(t *testing.T, base string) int {
	t.Helper()
	resp, _ := doJSON(t, http.MethodGet, base+"/readyz", nil)
	return resp.StatusCode
}

// TestReadyzFlipsUnreadyDuringDrain is the graceful-shutdown contract:
// /readyz answers 200 while serving, flips to 503 the moment Close
// begins draining (while an in-flight flush is still finishing), and
// stays unready after shutdown completes. Close waits out the flush
// whichever way it was set off, and a ?wait=1 that would have to start a
// new flush during the drain answers 503.
func TestReadyzFlipsUnreadyDuringDrain(t *testing.T) {
	for _, trigger := range flushTriggers {
		t.Run(string(trigger), func(t *testing.T) {
			srv, ts, _ := newFlightServer(t, t.TempDir(), nil)
			if got := readyzStatus(t, ts.URL); got != http.StatusOK {
				t.Fatalf("/readyz before shutdown: status %d, want 200", got)
			}
			// A second dataset with a row pending and no flush running.
			idle := createBuffered(t, ts.URL)
			resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+idle+"/rows",
				map[string]any{"rows": [][]string{{"g3", "id8"}}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
			}

			_, release := startHungFlush(t, srv, ts, trigger)
			defer release()
			closed := make(chan struct{})
			go func() {
				srv.Close()
				close(closed)
			}()

			// Close is blocked in flushWG.Wait on the hung flush; readiness
			// must already be down while the drain waits.
			waitFor(t, 5*time.Second, "/readyz to flip unready", func() bool {
				return readyzStatus(t, ts.URL) == http.StatusServiceUnavailable
			})
			resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+idle+"/flush?wait=1", nil)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("flush?wait=1 during drain: status %d, body %s, want 503", resp.StatusCode, body)
			}
			select {
			case <-closed:
				t.Fatal("Close returned while a flush was still hung")
			default:
			}

			release()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not finish after the flush was released")
			}
			if got := readyzStatus(t, ts.URL); got != http.StatusServiceUnavailable {
				t.Fatalf("/readyz after shutdown: status %d, want 503", got)
			}
		})
	}
}

// TestWatchdogCapturesFlushStall is the flight-recorder acceptance path:
// a fault-injected hung flush must trip the watchdog — an incident lands
// in the on-disk ring with a goroutine dump and the flush's open span
// tree, f2_watchdog_stalls_total increments, an ERROR hits the log — and
// /v1/debug/health reports the flush component failing, then recovers
// once the flush completes. It holds for an auto-flush and for a
// ?wait=1 flush alike, since both run as the same flush job.
func TestWatchdogCapturesFlushStall(t *testing.T) {
	for _, trigger := range flushTriggers {
		t.Run(string(trigger), func(t *testing.T) { testWatchdogCapturesFlushStall(t, trigger) })
	}
}

func testWatchdogCapturesFlushStall(t *testing.T, trigger flushTrigger) {
	srv, ts, logs := newFlightServer(t, t.TempDir(), func(o *Options) {
		o.FlushStallAfter = 50 * time.Millisecond
		o.WatchdogEvery = 10 * time.Millisecond
		o.SlowRequestThreshold = -1 // isolate: only the stall writes incidents
	})
	_, release := startHungFlush(t, srv, ts, trigger)
	defer release()

	componentStatus := func(name string) string {
		resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/health", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/debug/health: status %d, body %s", resp.StatusCode, body)
		}
		var rep obs.HealthReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		return string(rep.Components[name].Status)
	}
	waitFor(t, 5*time.Second, "flush component to report failing", func() bool {
		return componentStatus("flush") == "failing"
	})

	var incidents []obs.RingFile
	waitFor(t, 5*time.Second, "an incident file to appear", func() bool {
		resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/incidents", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/debug/incidents: status %d, body %s", resp.StatusCode, body)
		}
		var listing struct {
			Incidents []obs.RingFile `json:"incidents"`
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatal(err)
		}
		incidents = listing.Incidents
		return len(incidents) > 0
	})

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/incidents/"+incidents[0].Name, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("incident fetch: status %d, body %s", resp.StatusCode, body)
	}
	var inc obs.Incident
	if err := json.Unmarshal(body, &inc); err != nil {
		t.Fatal(err)
	}
	if inc.Kind != "flush_stall" {
		t.Fatalf("incident kind = %q, want flush_stall", inc.Kind)
	}
	if !strings.Contains(inc.Goroutines, "goroutine") {
		t.Fatal("incident carries no goroutine dump")
	}
	foundFlushTrace := false
	for _, tr := range inc.OpenTraces {
		if tr.Root.Name == "flush_background" {
			foundFlushTrace = true
		}
	}
	if !foundFlushTrace {
		t.Fatalf("incident open traces miss the hung flush: %+v", inc.OpenTraces)
	}

	resp, metricsBody := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(metricsBody), `f2_watchdog_stalls_total{kind="flush_stall"}`) {
		t.Fatal("/metrics has no f2_watchdog_stalls_total sample for the stall")
	}
	if !strings.Contains(logs.String(), `"level":"ERROR"`) || !strings.Contains(logs.String(), "watchdog") {
		t.Fatalf("no ERROR watchdog log line; logs:\n%s", logs.String())
	}

	// Release the flush; the component recovers and the backlog drains.
	release()
	waitFor(t, 10*time.Second, "flush component to recover", func() bool {
		return componentStatus("flush") == "ok"
	})
}

// TestSlowRequestRetained: a request past SlowRequestThreshold lands in
// the incident ring as kind slow_request without counting as a stall.
func TestSlowRequestRetained(t *testing.T) {
	_, ts, _ := newFlightServer(t, t.TempDir(), func(o *Options) {
		o.SlowRequestThreshold = time.Nanosecond // every request is "slow"
	})
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d, body %s", resp.StatusCode, body)
	}
	waitFor(t, 5*time.Second, "slow-request incident", func() bool {
		resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/incidents", nil)
		if resp.StatusCode != http.StatusOK {
			return false
		}
		return strings.Contains(string(body), "slow_request")
	})
	resp, metricsBody := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if strings.Contains(string(metricsBody), "f2_watchdog_stalls_total") {
		t.Fatal("a slow request must not count as a watchdog stall")
	}
}

// TestDebugRuntimeEndpoint: the sampler serves a non-zero latest sample
// plus history through GET /v1/debug/runtime.
func TestDebugRuntimeEndpoint(t *testing.T) {
	_, ts, _ := newFlightServer(t, t.TempDir(), func(o *Options) {
		o.RuntimeSampleEvery = 50 * time.Millisecond
		o.RuntimeHistory = 8
	})
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/runtime", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/debug/runtime: status %d, body %s", resp.StatusCode, body)
	}
	var rt struct {
		Latest  obs.RuntimeSample   `json:"latest"`
		History []obs.RuntimeSample `json:"history"`
	}
	if err := json.Unmarshal(body, &rt); err != nil {
		t.Fatal(err)
	}
	// TotalBytes (not HeapBytes) is the assertable gauge: the heap-objects
	// series can legitimately read 0 in a quiet fresh process.
	if rt.Latest.TotalBytes == 0 || rt.Latest.Goroutines == 0 {
		t.Fatalf("latest sample empty: %+v", rt.Latest)
	}
	if len(rt.History) == 0 {
		t.Fatal("no history retained")
	}
	// And the f2_runtime_* series render on /metrics with headers.
	_, metricsBody := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	for _, want := range []string{
		"# HELP f2_runtime_total_bytes",
		"f2_runtime_goroutines",
		`f2_runtime_gc_pause_seconds{quantile="0.99"}`,
		`f2_runtime_sched_latency_seconds{quantile="0.5"}`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestDebugHealthComponents: a healthy durable server reports every
// expected component ok, and the aggregate is ok.
func TestDebugHealthComponents(t *testing.T) {
	_, ts, _ := newFlightServer(t, t.TempDir(), nil)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/health", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/debug/health: status %d, body %s", resp.StatusCode, body)
	}
	var rep obs.HealthReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != obs.HealthOK {
		t.Fatalf("aggregate = %q, want ok: %s", rep.Status, body)
	}
	for _, name := range []string{"ingest", "flush", "pool", "hydration", "wal", "gc"} {
		c, ok := rep.Components[name]
		if !ok {
			t.Fatalf("component %q missing: %s", name, body)
		}
		if c.Status != obs.HealthOK {
			t.Fatalf("component %q = %q, want ok", name, c.Status)
		}
	}
}

// TestDebugProfilesEndpoint: with a profile dir configured, the
// continuous profiler retains fetchable pprof artifacts.
func TestDebugProfilesEndpoint(t *testing.T) {
	profDir := t.TempDir()
	_, ts, _ := newFlightServer(t, t.TempDir(), func(o *Options) {
		o.ProfileDir = profDir
		o.ProfileInterval = 50 * time.Millisecond
		o.ProfileCPUWindow = 10 * time.Millisecond
	})
	var fetch obs.RingFile
	waitFor(t, 10*time.Second, "a finished profile to appear", func() bool {
		resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/profiles", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/debug/profiles: status %d, body %s", resp.StatusCode, body)
		}
		var listing struct {
			Profiles []obs.RingFile `json:"profiles"`
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatal(err)
		}
		for _, p := range listing.Profiles {
			// A zero-size file is a CPU window still streaming; fetch a
			// finished artifact.
			if p.Size > 0 {
				fetch = p
				return true
			}
		}
		return false
	})
	resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/profiles/"+fetch.Name, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile fetch: status %d", resp.StatusCode)
	}
	if len(data) == 0 {
		t.Fatal("fetched profile is empty")
	}
}

// TestDebugEndpointsDisabled: without a profiler (and with the sampler
// off) the debug endpoints answer 404, not 500.
func TestDebugEndpointsDisabled(t *testing.T) {
	srv, err := New(Options{Workers: 1, RuntimeSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	for _, path := range []string{"/v1/debug/runtime", "/v1/debug/profiles", "/v1/debug/incidents"} {
		resp, _ := doJSON(t, http.MethodGet, ts.URL+path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on a disabled recorder: status %d, want 404", path, resp.StatusCode)
		}
	}
	// Health still answers: the model has components with or without a
	// store or sampler.
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/health", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/debug/health: status %d, want 200", resp.StatusCode)
	}
}
