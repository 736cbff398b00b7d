package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"f2/internal/store"
)

// TestAppendsProceedWhileFlushInFlight pins the ingest decoupling: with a
// flush plan held open (simulating a slow background encrypt), appends
// and reads against the same dataset complete instead of queueing behind
// it, and completing the flush afterwards loses nothing.
func TestAppendsProceedWhileFlushInFlight(t *testing.T) {
	srv, ts := newTestServer(t, 2)
	id := createDataset(t, ts.URL, []string{"G", "ID"}, [][]string{
		{"g1", "id1"}, {"g1", "id2"}, {"g2", "id3"}, {"g2", "id4"},
	})

	// One pending row so there is a delta to flush.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"g1", "id5"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}

	// Open a flush plan by hand and park it in the single-flight slot, as
	// if the background encrypt were mid-run.
	ds, ok := srv.reg.Get(id)
	if !ok {
		t.Fatal("dataset not registered")
	}
	ds.Lock()
	plan, err := ds.upd.BeginFlush()
	if err != nil || plan == nil {
		ds.Unlock()
		t.Fatalf("BeginFlush: plan=%v err=%v", plan, err)
	}
	job := &flushJob{ID: newFlushJobID(), done: make(chan struct{})}
	ds.curFlush = job
	registerFlushJobLocked(ds, job)
	ds.Unlock()

	// Appends and reads must complete while the flush is in flight.
	for i := 0; i < 3; i++ {
		done := make(chan struct{})
		go func(i int) {
			defer close(done)
			resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
				map[string]any{"rows": [][]string{{"g2", fmt.Sprintf("id-mid-%d", i)}}})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("append during flush: status %d, body %s", resp.StatusCode, body)
			}
		}(i)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("append blocked behind the in-flight flush")
		}
	}
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get during flush: status %d, body %s", resp.StatusCode, body)
	}

	// Polling the job while running reports running.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+id+"/flush/"+job.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll: status %d, body %s", resp.StatusCode, body)
	}
	var polled struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &polled); err != nil {
		t.Fatal(err)
	}
	if polled.Status != "running" {
		t.Fatalf("job status %q while plan held open, want running", polled.Status)
	}

	// Finish the parked flush the way runBackgroundFlush would.
	if err := plan.Run(context.Background()); err != nil {
		t.Fatalf("plan.Run: %v", err)
	}
	ds.Lock()
	if _, err := ds.upd.CompleteFlush(plan); err != nil {
		ds.Unlock()
		t.Fatalf("CompleteFlush: %v", err)
	}
	summary := ds.refreshSummaryLocked()
	finishFlushLocked(ds, job, nil, summary, reportJSON{}, ds.upd.LastFlush)
	ds.Unlock()

	// Everything — the flushed delta and the mid-flight appends — survives.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/flush?wait=1", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final flush: status %d, body %s", resp.StatusCode, body)
	}
	_, rows, pending := decryptRows(t, ts.URL, id)
	if pending != 0 || len(rows) != 8 {
		t.Fatalf("decrypt: %d rows, %d pending, want 8/0", len(rows), pending)
	}
}

// TestIngestBackpressure429: past MaxPendingBytes the append answers 429
// with Retry-After and leaves no state behind.
func TestIngestBackpressure429(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: 1, Store: st, MaxPendingBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		st.Close()
	})
	id := createDataset(t, ts.URL, []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"},
	})

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"ax", "bx"}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("append over limit: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	ds, _ := srv.reg.Get(id)
	ds.Lock()
	pending, seq, bytes := ds.upd.Pending(), ds.walSeq, ds.pendingBytes
	ds.Unlock()
	if pending != 0 || seq != 0 || bytes != 0 {
		t.Fatalf("rejected append left pending=%d walSeq=%d pendingBytes=%d", pending, seq, bytes)
	}
}

// TestClientDisconnectIs499 pins the disconnect contract: a client that
// is already gone while its ?wait=1 flush queues for the worker pool gets
// 499 (client closed request), logged at WARN — not a 500 and not an
// ERROR record — and the flush it started still commits once the pool
// frees up: the request only waited on the flush job, it did not own it.
func TestClientDisconnectIs499(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv, err := New(Options{Workers: 1, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	id := createDataset(t, ts.URL, []string{"G", "ID"}, [][]string{
		{"g1", "id1"}, {"g1", "id2"}, {"g2", "id3"},
	})
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"g1", "id4"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, body %s", resp.StatusCode, body)
	}

	// Occupy the single worker so the flush has to queue — which is where
	// a cancelled request context is noticed deterministically.
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.pool.Run(context.Background(), func(ctx context.Context) error {
			close(started)
			<-block
			return nil
		})
	}()
	<-started
	var unblockOnce sync.Once
	unblock := func() {
		unblockOnce.Do(func() {
			close(block)
			wg.Wait()
		})
	}
	defer unblock()
	flushesBefore := flushesTotal(t, ts.URL)

	// The "disconnected" client: its request context is already cancelled.
	req := httptest.NewRequest(http.MethodPost, "/v1/datasets/"+id+"/flush?wait=1", nil)
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req.WithContext(ctx))

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("disconnected flush: status %d, body %s, want 499", rec.Code, rec.Body.String())
	}

	// Free the worker: the flush the departed client started commits.
	unblock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+id, nil)
		var got struct {
			Dataset Summary `json:"dataset"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		flushes := flushesTotal(t, ts.URL)
		if got.Dataset.PendingRows == 0 && flushes == flushesBefore+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flush of a departed client never committed: pendingRows %d, f2_flushes_total %v → %v",
				got.Dataset.PendingRows, flushesBefore, flushes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	logs := buf.String()
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var entry struct {
			Level  string `json:"level"`
			Msg    string `json:"msg"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			continue
		}
		if entry.Level == "ERROR" {
			t.Errorf("client disconnect produced an ERROR record: %s", line)
		}
		if entry.Msg == "request" && entry.Status == StatusClientClosedRequest {
			found = true
			if entry.Level != "WARN" {
				t.Errorf("499 request logged at %s, want WARN", entry.Level)
			}
		}
	}
	if !found {
		t.Fatalf("no request log record with status 499 in:\n%s", logs)
	}
}

// flushesTotal sums f2_flushes_total over its mode labels; 0 before the
// first flush, when the family renders no samples.
func flushesTotal(t *testing.T, base string) float64 {
	t.Helper()
	_, body := doJSON(t, http.MethodGet, base+"/metrics", nil)
	total := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "f2_flushes_total{") {
			continue
		}
		f, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q", line)
		}
		total += f
	}
	return total
}
