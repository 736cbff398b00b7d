package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRuntimeSamplerImmediateSample(t *testing.T) {
	s := NewRuntimeSampler(time.Hour, 8) // interval irrelevant: Start samples synchronously
	s.Start()
	defer s.Stop()
	got := s.Latest()
	if got.Time.IsZero() {
		t.Fatal("Latest has zero time after Start")
	}
	// TotalBytes includes stacks and runtime structures, so it is never
	// zero; the heap-objects gauge can legitimately read 0 in a freshly
	// started process on some runtimes, so it is not asserted here.
	if got.TotalBytes == 0 {
		t.Error("TotalBytes = 0, want > 0")
	}
	if got.Goroutines == 0 {
		t.Error("Goroutines = 0, want > 0")
	}
	if h := s.History(); len(h) != 1 {
		t.Errorf("History len = %d, want 1", len(h))
	}
}

func TestRuntimeSamplerHistoryBounded(t *testing.T) {
	s := NewRuntimeSampler(time.Hour, 3)
	for i := 0; i < 10; i++ {
		s.sample()
	}
	h := s.History()
	if len(h) != 3 {
		t.Fatalf("History len = %d, want 3", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i].Time.Before(h[i-1].Time) {
			t.Errorf("history out of order at %d", i)
		}
	}
	if last := s.Latest(); !last.Time.Equal(h[2].Time) {
		t.Error("Latest is not the newest history entry")
	}
}

func TestHealthRegistryAggregation(t *testing.T) {
	h := NewHealthRegistry()
	if rep := h.Report(); rep.Status != HealthOK {
		t.Fatalf("empty registry status = %q, want ok", rep.Status)
	}
	h.Register("a", func() ComponentHealth { return ComponentHealth{Status: HealthOK} })
	h.Register("b", func() ComponentHealth {
		return ComponentHealth{Status: HealthDegraded, Detail: map[string]any{"queued": 7}}
	})
	rep := h.Report()
	if rep.Status != HealthDegraded {
		t.Errorf("status = %q, want degraded", rep.Status)
	}
	if rep.Components["b"].Detail["queued"] != 7 {
		t.Error("component detail lost in aggregation")
	}
	h.Register("c", func() ComponentHealth { return ComponentHealth{Status: HealthFailing} })
	if rep := h.Report(); rep.Status != HealthFailing {
		t.Errorf("status = %q, want failing", rep.Status)
	}
	// Recovery: replacing the failing callback recovers the aggregate.
	h.Register("c", func() ComponentHealth { return ComponentHealth{Status: HealthOK} })
	h.Register("b", func() ComponentHealth { return ComponentHealth{Status: HealthOK} })
	if rep := h.Report(); rep.Status != HealthOK {
		t.Errorf("status after recovery = %q, want ok", rep.Status)
	}
	// An empty status reads as ok, an unknown one as worse than failing.
	h.Register("d", func() ComponentHealth { return ComponentHealth{} })
	if rep := h.Report(); rep.Status != HealthOK {
		t.Errorf("empty component status = %q, want ok", rep.Status)
	}
	if HealthStatus("bogus").Worse(HealthFailing) != HealthStatus("bogus") {
		t.Error("unknown status must rank worse than failing")
	}
}

func TestIncidentRingWriteListRead(t *testing.T) {
	dir := t.TempDir()
	r, err := NewIncidentRing(dir, 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	name, err := r.Write(&Incident{
		Kind:       "flush_stall",
		Reason:     "job exceeded deadline",
		Detail:     map[string]any{"dataset": "ds_x", "ageMs": 1500},
		Goroutines: "goroutine 1 [running]: ...",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(name, "flush_stall") || !strings.HasSuffix(name, ".json") {
		t.Errorf("unexpected incident name %q", name)
	}
	list, err := r.List()
	if err != nil || len(list) != 1 {
		t.Fatalf("List = %v entries, err %v; want 1", len(list), err)
	}
	data, err := r.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	var got Incident
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("incident file is not JSON: %v", err)
	}
	if got.Kind != "flush_stall" || got.Reason == "" || got.Goroutines == "" {
		t.Errorf("round-trip lost fields: %+v", got)
	}
}

func TestIncidentRingBounded(t *testing.T) {
	dir := t.TempDir()
	r, err := NewIncidentRing(dir, 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := r.Write(&Incident{Kind: "slow_request", Reason: "r"}); err != nil {
			t.Fatal(err)
		}
	}
	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Errorf("ring holds %d files, want 3", len(list))
	}
	// Byte cap: write oversized incidents into a tight ring.
	tight, err := NewIncidentRing(t.TempDir(), 100, 2048)
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("g", 900)
	for i := 0; i < 6; i++ {
		if _, err := tight.Write(&Incident{Kind: "wal_stall", Goroutines: big}); err != nil {
			t.Fatal(err)
		}
	}
	list, err = tight.List()
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, f := range list {
		total += f.Size
	}
	// The newest file is always kept even if alone it exceeds the cap.
	if len(list) > 2 && total > 2048 {
		t.Errorf("byte cap not enforced: %d files, %d bytes", len(list), total)
	}
}

func TestIncidentRingReadRejectsTraversal(t *testing.T) {
	r, err := NewIncidentRing(t.TempDir(), 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../secret", "a/b.json", "", ".hidden", "..", "/etc/passwd"} {
		if _, err := r.Read(name); err == nil {
			t.Errorf("Read(%q) succeeded, want error", name)
		}
	}
}

func TestContinuousProfilerCapturesAndPrunes(t *testing.T) {
	if testing.Short() {
		t.Skip("profiler capture loop is wall-clock bound")
	}
	dir := t.TempDir()
	var errs []error
	p, err := StartContinuousProfiler(ProfilerConfig{
		Dir:       dir,
		Interval:  50 * time.Millisecond,
		CPUWindow: 10 * time.Millisecond,
		MaxFiles:  4,
		MaxBytes:  8 << 20,
		OnError:   func(e error) { errs = append(errs, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var list []RingFile
	for time.Now().Before(deadline) {
		list, err = p.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(list) >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.Stop()
	if len(list) < 2 {
		t.Fatalf("profiler captured %d files in 5s, want ≥2 (errors: %v)", len(list), errs)
	}
	// Re-list after Stop: an in-flight capture cycle may have pruned
	// entries from the snapshot taken above.
	list, err = p.List()
	if err != nil {
		t.Fatal(err)
	}
	sawCPU, sawHeap := false, false
	for _, f := range list {
		if strings.Contains(f.Name, "-cpu.") {
			sawCPU = true
		}
		if strings.Contains(f.Name, "-heap.") {
			sawHeap = true
		}
	}
	if !sawCPU || !sawHeap {
		t.Errorf("want both cpu and heap profiles, got %v", list)
	}
	// Ring stays bounded across many cycles.
	if len(list) > 4 {
		t.Errorf("ring holds %d files, cap is 4", len(list))
	}
	// Profiles must be readable and non-empty.
	data, err := p.Read(list[len(list)-1].Name)
	if err != nil || len(data) == 0 {
		t.Errorf("Read newest profile: %d bytes, err %v", len(data), err)
	}
}

func TestRingTrackActiveSnapshots(t *testing.T) {
	r := NewRing(4, 2)
	ctx := context.Background()
	_, t1 := NewTrace(ctx, "aaaa", "op1")
	c2, t2 := NewTrace(ctx, "bbbb", "op2")
	_, sp := Start(c2, "slow.stage")
	_ = sp // deliberately left open
	u1 := r.Track(t1)
	u2 := r.Track(t2)
	snaps := r.ActiveSnapshots()
	if len(snaps) != 2 {
		t.Fatalf("ActiveSnapshots = %d, want 2", len(snaps))
	}
	for _, s := range snaps {
		if s.Complete {
			t.Errorf("trace %s snapshot marked complete while open", s.ID)
		}
	}
	// The open child span must appear, marked open.
	var found bool
	for _, s := range snaps {
		if s.ID == "bbbb" {
			for _, c := range s.Root.Children {
				if c.Name == "slow.stage" && c.Open {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("open span missing from active snapshot")
	}
	u1()
	u1() // double-untrack is safe
	if got := r.ActiveSnapshots(); len(got) != 1 {
		t.Errorf("after untrack: %d active, want 1", len(got))
	}
	u2()
	if got := r.ActiveSnapshots(); len(got) != 0 {
		t.Errorf("after both untracked: %d active, want 0", len(got))
	}
	if r.Track(nil) == nil {
		t.Error("Track(nil) must return a no-op untrack")
	}
}

func TestHeartbeat(t *testing.T) {
	var h Heartbeat
	if h.Age() != 0 {
		t.Error("zero-value heartbeat must report zero age")
	}
	h.Beat()
	time.Sleep(10 * time.Millisecond)
	if age := h.Age(); age < 5*time.Millisecond || age > 5*time.Second {
		t.Errorf("Age = %v, want ~10ms", age)
	}
	h.Beat()
	if age := h.Age(); age > time.Second {
		t.Errorf("Age after fresh beat = %v", age)
	}
}

func TestFileRingNameOrdering(t *testing.T) {
	r, err := newFileRing(t.TempDir(), 10, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	var names []string
	for i := 0; i < 3; i++ {
		n, err := r.write(t0.Add(time.Duration(i)*time.Second), "cpu", "pprof", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, n)
	}
	// Different tags at the same instant still sort chronologically
	// because the timestamp leads the name.
	n, err := r.write(t0.Add(3*time.Second), "heap", "pprof", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, n)
	list, err := r.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 4 {
		t.Fatalf("list = %d, want 4", len(list))
	}
	for i, f := range list {
		if f.Name != names[i] {
			t.Errorf("list[%d] = %q, want %q (chronological)", i, f.Name, names[i])
		}
	}
	if _, err := os.Stat(filepath.Join(r.dir, names[0])); err != nil {
		t.Error("oldest file missing though under bounds")
	}
}
