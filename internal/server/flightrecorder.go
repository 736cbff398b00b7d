package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"f2/internal/obs"
)

// The flight recorder is the server's always-on observability core: a
// runtime sampler feeding f2_runtime_* metrics and GET /v1/debug/runtime,
// a component health model behind GET /v1/debug/health and /readyz, and
// a stall watchdog that captures incidents — goroutine dump, runtime
// snapshot, open span trees — into a bounded on-disk ring when a
// background flush or the WAL committer wedges, or a request runs past
// the slow-request threshold. The design constraint throughout: nothing
// here may take ds.mu or any registry mutex, because the flight recorder
// exists precisely for the moments those locks are stuck.

// flushInfo is one tracked flush job, keyed by its job in
// Server.flushTrack.
type flushInfo struct {
	dataset string
	jobID   string
	started time.Time
}

// trackFlush registers a running flush job with the watchdog.
func (s *Server) trackFlush(ds *Dataset, job *flushJob) {
	s.flushMu.Lock()
	s.flushTrack[job] = flushInfo{dataset: ds.ID, jobID: job.ID, started: time.Now()}
	s.flushMu.Unlock()
}

// untrackFlush removes a finished flush job.
func (s *Server) untrackFlush(job *flushJob) {
	s.flushMu.Lock()
	delete(s.flushTrack, job)
	s.flushMu.Unlock()
}

// flushesInFlight snapshots the tracked flush jobs.
func (s *Server) flushesInFlight() []flushInfo {
	s.flushMu.Lock()
	out := make([]flushInfo, 0, len(s.flushTrack))
	for _, fi := range s.flushTrack {
		out = append(out, fi)
	}
	s.flushMu.Unlock()
	return out
}

// initFlightRecorder wires the sampler, health model, incident ring,
// profiler, and watchdog into a freshly built server. Called from New
// after the pool exists; route registration stays in New with the rest
// of the route table.
func (s *Server) initFlightRecorder() error {
	s.health = obs.NewHealthRegistry()
	s.flushTrack = make(map[*flushJob]flushInfo)
	s.watchdogStop = make(chan struct{})
	s.watchdogDone = make(chan struct{})

	if s.st != nil {
		ring, err := obs.NewIncidentRing(filepath.Join(s.st.Dir(), "incidents"),
			s.opts.IncidentMaxFiles, s.opts.IncidentMaxBytes)
		if err != nil {
			return fmt.Errorf("server: opening incident ring: %w", err)
		}
		s.incidents = ring
	}

	if s.opts.ProfileDir != "" {
		p, err := obs.StartContinuousProfiler(obs.ProfilerConfig{
			Dir:       s.opts.ProfileDir,
			Interval:  s.opts.ProfileInterval,
			CPUWindow: s.opts.ProfileCPUWindow,
			MaxFiles:  s.opts.ProfileMaxFiles,
			MaxBytes:  s.opts.ProfileMaxBytes,
			OnError:   func(err error) { s.logf("profiler: %v", err) },
		})
		if err != nil {
			return fmt.Errorf("server: starting continuous profiler: %w", err)
		}
		s.profiler = p
	}

	if s.opts.RuntimeSampleEvery >= 0 {
		every := s.opts.RuntimeSampleEvery
		if every == 0 {
			every = 5 * time.Second
		}
		s.sampler = obs.NewRuntimeSampler(every, s.opts.RuntimeHistory)
		s.sampler.Start()
		s.registerRuntimeMetrics()
	}

	s.registerHealthChecks()
	go s.watchdog()
	return nil
}

// closeFlightRecorder stops the watchdog, sampler, and profiler. Called
// from Close after the flush drain (the watchdog should observe flushes
// to their end) and before the pool closes.
func (s *Server) closeFlightRecorder() {
	close(s.watchdogStop)
	<-s.watchdogDone
	if s.sampler != nil {
		s.sampler.Stop()
	}
	if s.profiler != nil {
		s.profiler.Stop()
	}
}

// registerRuntimeMetrics exposes the sampler's latest reading as
// f2_runtime_* series. Gauge callbacks only touch the sampler's own
// mutex — never ds.mu or the registry — per the Metrics.Render contract.
func (s *Server) registerRuntimeMetrics() {
	s.metrics.RegisterGauge("f2_runtime_heap_bytes", func() float64 {
		return float64(s.sampler.Latest().HeapBytes)
	})
	s.metrics.RegisterGauge("f2_runtime_total_bytes", func() float64 {
		return float64(s.sampler.Latest().TotalBytes)
	})
	s.metrics.RegisterGauge("f2_runtime_goroutines", func() float64 {
		return float64(s.sampler.Latest().Goroutines)
	})
	s.metrics.RegisterCounterFunc("f2_runtime_gc_cycles_total", func() float64 {
		return float64(s.sampler.Latest().GCCycles)
	})
	quantiles := func(q obs.Quantiles) []GaugeSample {
		return []GaugeSample{
			{Labels: []string{"quantile", "0.5"}, Value: q.P50},
			{Labels: []string{"quantile", "0.9"}, Value: q.P90},
			{Labels: []string{"quantile", "0.99"}, Value: q.P99},
		}
	}
	s.metrics.RegisterGaugeVec("f2_runtime_gc_pause_seconds", func() []GaugeSample {
		return quantiles(s.sampler.Latest().GCPauseSeconds)
	})
	s.metrics.RegisterGaugeVec("f2_runtime_sched_latency_seconds", func() []GaugeSample {
		return quantiles(s.sampler.Latest().SchedLatencySeconds)
	})
}

// registerHealthChecks wires the component health model. Every callback
// reads atomics, its own leaf mutex, or store accessors that take no
// server lock — the health report must stay answerable while the very
// subsystems it describes are wedged.
func (s *Server) registerHealthChecks() {
	s.health.Register("ingest", func() obs.ComponentHealth {
		queued := s.ingestBytes.Load()
		bound := s.opts.MaxPendingBytes
		h := obs.ComponentHealth{Status: obs.HealthOK, Detail: map[string]any{
			"queuedBytes":     queued,
			"maxPendingBytes": bound,
		}}
		if bound > 0 {
			switch {
			case queued >= bound:
				h.Status = obs.HealthFailing
				h.Detail["why"] = "ingest queue at or past the backpressure bound; appends answer 429"
			case queued >= bound*8/10:
				h.Status = obs.HealthDegraded
				h.Detail["why"] = "ingest queue past 80% of the backpressure bound"
			}
		}
		return h
	})

	s.health.Register("flush", func() obs.ComponentHealth {
		inflight := s.flushesInFlight()
		h := obs.ComponentHealth{Status: obs.HealthOK, Detail: map[string]any{
			"inFlight": len(inflight),
		}}
		var oldest flushInfo
		var oldestAge time.Duration
		for _, fi := range inflight {
			if age := time.Since(fi.started); age > oldestAge {
				oldest, oldestAge = fi, age
			}
		}
		if oldestAge > 0 {
			h.Detail["oldestJobId"] = oldest.jobID
			h.Detail["oldestDataset"] = oldest.dataset
			h.Detail["oldestAgeMs"] = oldestAge.Milliseconds()
		}
		if thr := s.opts.FlushStallAfter; thr > 0 {
			switch {
			case oldestAge >= thr:
				h.Status = obs.HealthFailing
				h.Detail["why"] = "a background flush has run past the stall threshold"
			case oldestAge >= thr/2:
				h.Status = obs.HealthDegraded
				h.Detail["why"] = "a background flush is at half the stall threshold"
			}
		}
		return h
	})

	s.health.Register("pool", func() obs.ComponentHealth {
		workers, active, queued := s.pool.Stats()
		h := obs.ComponentHealth{Status: obs.HealthOK, Detail: map[string]any{
			"workers": workers, "active": active, "queued": queued,
		}}
		if queued > int64(2*workers) {
			h.Status = obs.HealthDegraded
			h.Detail["why"] = "pool backlog exceeds twice the worker count"
		}
		return h
	})

	// Hydration is informational: lazily restored datasets are a normal
	// boot state, not a fault, but an operator chasing a slow first read
	// wants to see which datasets still face a hydration on first touch.
	s.health.Register("hydration", func() obs.ComponentHealth {
		lazy := []string{}
		total := 0
		for _, ds := range s.reg.List() {
			total++
			if !ds.hydrated.Load() {
				lazy = append(lazy, ds.ID)
			}
		}
		if len(lazy) > 8 {
			lazy = lazy[:8]
		}
		return obs.ComponentHealth{Status: obs.HealthOK, Detail: map[string]any{
			"datasets":    total,
			"notHydrated": len(lazy),
			"pendingIds":  lazy,
		}}
	})

	if s.st == nil {
		return
	}
	s.health.Register("wal", func() obs.ComponentHealth {
		wh := s.st.WALHealth()
		h := obs.ComponentHealth{Status: obs.HealthOK, Detail: map[string]any{
			"writers":            wh.Writers,
			"queuedBatches":      wh.QueuedBatches,
			"oldestStagedAgeMs":  wh.OldestStagedAge.Milliseconds(),
			"committerBeatAgeMs": wh.CommitterBeatAge.Milliseconds(),
		}}
		if thr := s.opts.WALStallAfter; thr > 0 {
			switch {
			case wh.OldestStagedAge >= thr:
				h.Status = obs.HealthFailing
				h.Detail["why"] = "a staged WAL batch has waited past the stall threshold"
			case wh.OldestStagedAge >= thr/2:
				h.Status = obs.HealthDegraded
				h.Detail["why"] = "a staged WAL batch is at half the stall threshold"
			}
		}
		return h
	})
	s.health.Register("gc", func() obs.ComponentHealth {
		debt := s.st.GCDebt()
		h := obs.ComponentHealth{Status: obs.HealthOK, Detail: map[string]any{
			"datasetsInDebt": len(debt),
		}}
		if len(debt) > 0 {
			h.Status = obs.HealthDegraded
			h.Detail["debt"] = debt
			h.Detail["why"] = "chunk sweeps failed; unreferenced chunks leak until the next clean rotation"
		}
		return h
	})
}

// watchdog is the stall monitor loop: every WatchdogEvery it compares
// tracked background flushes and the WAL committer backlog against their
// deadlines, and captures one incident per stall episode.
func (s *Server) watchdog() {
	defer close(s.watchdogDone)
	every := s.opts.WatchdogEvery
	t := time.NewTicker(every)
	defer t.Stop()
	seen := make(map[string]struct{}) // episodes already captured
	for {
		select {
		case <-s.watchdogStop:
			return
		case <-t.C:
			s.watchdogScan(seen)
		}
	}
}

// watchdogScan runs one watchdog pass. seen dedups episodes: a stalled
// flush is captured once per job, a stalled committer once per episode
// (the key clears when the backlog drains, so a later stall fires again).
func (s *Server) watchdogScan(seen map[string]struct{}) {
	now := time.Now()
	if thr := s.opts.FlushStallAfter; thr > 0 {
		live := make(map[string]struct{})
		for _, fi := range s.flushesInFlight() {
			key := "flush:" + fi.jobID
			live[key] = struct{}{}
			age := now.Sub(fi.started)
			if age < thr {
				continue
			}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			s.captureStall("flush_stall",
				fmt.Sprintf("background flush %s on dataset %s has run %s (threshold %s)",
					fi.jobID, fi.dataset, age.Round(time.Millisecond), thr),
				map[string]any{
					"dataset":     fi.dataset,
					"flushJobId":  fi.jobID,
					"ageMs":       age.Milliseconds(),
					"thresholdMs": thr.Milliseconds(),
				})
		}
		// Finished jobs leave the episode set so the dedup map stays
		// bounded by the number of concurrent flushes.
		for key := range seen {
			if len(key) > 6 && key[:6] == "flush:" {
				if _, ok := live[key]; !ok {
					delete(seen, key)
				}
			}
		}
	}
	if thr := s.opts.WALStallAfter; thr > 0 && s.st != nil {
		wh := s.st.WALHealth()
		if wh.OldestStagedAge >= thr {
			if _, dup := seen["wal"]; !dup {
				seen["wal"] = struct{}{}
				s.captureStall("wal_stall",
					fmt.Sprintf("oldest staged WAL batch has waited %s (threshold %s); committer heartbeat %s old",
						wh.OldestStagedAge.Round(time.Millisecond), thr, wh.CommitterBeatAge.Round(time.Millisecond)),
					map[string]any{
						"writers":            wh.Writers,
						"queuedBatches":      wh.QueuedBatches,
						"oldestStagedAgeMs":  wh.OldestStagedAge.Milliseconds(),
						"committerBeatAgeMs": wh.CommitterBeatAge.Milliseconds(),
						"thresholdMs":        thr.Milliseconds(),
					})
			}
		} else {
			delete(seen, "wal")
		}
	}
}

// captureStall is the watchdog's incident path: ERROR log, stall
// counter, and a full incident capture into the on-disk ring.
func (s *Server) captureStall(kind, reason string, detail map[string]any) {
	s.errorf("watchdog: %s: %s", kind, reason)
	s.metrics.IncCounter("f2_watchdog_stalls_total", "kind", kind)
	s.captureIncident(kind, reason, detail)
}

// captureIncident assembles and persists one incident: the reason, the
// latest runtime sample, every in-flight trace's open span tree, and a
// full goroutine dump. Without a store (no data dir) the capture is
// logged and counted but has nowhere durable to land.
func (s *Server) captureIncident(kind, reason string, detail map[string]any) {
	s.metrics.IncCounter("f2_incidents_total", "kind", kind)
	if s.incidents == nil {
		return
	}
	inc := &obs.Incident{
		Kind:       kind,
		Reason:     reason,
		Detail:     detail,
		OpenTraces: s.traces.ActiveSnapshots(),
		Goroutines: allStacks(),
	}
	if s.sampler != nil {
		latest := s.sampler.Latest()
		inc.Runtime = &latest
	}
	name, err := s.incidents.Write(inc)
	if err != nil {
		s.errorf("watchdog: writing incident: %v", err)
		return
	}
	s.logf("watchdog: incident captured: %s", name)
}

// retainSlowRequest captures a finished-but-slow request the same way a
// stall is captured. Called from the instrument middleware after the
// response went out; the request's own trace snapshot rides in Detail
// since it is complete (not an open tree) by capture time.
func (s *Server) retainSlowRequest(op string, status int, d time.Duration, snap *obs.TraceSnapshot) {
	reason := fmt.Sprintf("request %s finished in %s (threshold %s)",
		op, d.Round(time.Millisecond), s.opts.SlowRequestThreshold)
	s.logf("slow request retained: %s", reason)
	s.captureIncident("slow_request", reason, map[string]any{
		"op":          op,
		"status":      status,
		"durationMs":  d.Milliseconds(),
		"thresholdMs": s.opts.SlowRequestThreshold.Milliseconds(),
		"trace":       snap,
	})
}

// allStacks dumps every goroutine's stack, growing the buffer until the
// dump fits (capped at 16 MiB — past that the truncated dump is still
// worth keeping).
func allStacks() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) || len(buf) >= 16<<20 {
			return string(buf[:n])
		}
		buf = make([]byte, len(buf)*2)
	}
}

// handleReadyz is GET /readyz: readiness, as distinct from /healthz's
// liveness. Unready while New has not finished boot recovery and from
// the moment Close begins draining — a load balancer should stop
// routing here while in-flight flushes finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() || s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// handleDebugHealth is GET /v1/debug/health: the component health model,
// aggregated worst-wins.
func (s *Server) handleDebugHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health.Report())
}

// handleDebugRuntime is GET /v1/debug/runtime: the sampler's latest
// reading plus the bounded history ring, oldest first.
func (s *Server) handleDebugRuntime(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		writeError(w, http.StatusNotFound, "runtime sampler disabled")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"latest":  s.sampler.Latest(),
		"history": s.sampler.History(),
	})
}

// handleDebugIncidents is GET /v1/debug/incidents: list the retained
// incident files, oldest first.
func (s *Server) handleDebugIncidents(w http.ResponseWriter, r *http.Request) {
	if s.incidents == nil {
		writeError(w, http.StatusNotFound, "incident ring disabled (no data dir)")
		return
	}
	files, err := s.incidents.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "listing incidents: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"incidents": files})
}

// handleDebugIncidentByName serves one incident file verbatim.
func (s *Server) handleDebugIncidentByName(w http.ResponseWriter, r *http.Request) {
	if s.incidents == nil {
		writeError(w, http.StatusNotFound, "incident ring disabled (no data dir)")
		return
	}
	data, err := s.incidents.Read(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleDebugProfiles is GET /v1/debug/profiles: list the continuous
// profiler's retained CPU/heap profiles.
func (s *Server) handleDebugProfiles(w http.ResponseWriter, r *http.Request) {
	if s.profiler == nil {
		writeError(w, http.StatusNotFound, "continuous profiler disabled (set -profile-dir)")
		return
	}
	files, err := s.profiler.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "listing profiles: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"profiles": files})
}

// handleDebugProfileByName serves one pprof file for `go tool pprof`.
func (s *Server) handleDebugProfileByName(w http.ResponseWriter, r *http.Request) {
	if s.profiler == nil {
		writeError(w, http.StatusNotFound, "continuous profiler disabled (set -profile-dir)")
		return
	}
	data, err := s.profiler.Read(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// errorf logs at ERROR level — reserved for events that should page:
// watchdog stalls, incident-write failures.
func (s *Server) errorf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Error(fmt.Sprintf(format, args...))
	}
}
