package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"

	"f2/internal/core"
	"f2/internal/obs"
	"f2/internal/store"
)

// Flushes are decoupled from the per-dataset lock: BeginFlush snapshots
// the pending rows under ds.mu, the encrypt runs in the worker pool with
// no dataset lock held, and Complete/Abort reconcile under ds.mu again —
// so appends (and reads) proceed while a multi-second encrypt is in
// flight. Flushes are single-flight per dataset (ds.curFlush); callers
// that find one running join it instead of queueing a second.
//
// One code path runs every flush: a job started by
// startBackgroundFlushLocked and driven by runBackgroundFlush, whether an
// append crossed the auto-flush threshold or a client asked.
// POST /v1/datasets/{id}/flush starts (or joins) that job and answers 202
// with a job id the client polls via GET /v1/datasets/{id}/flush/{jobID};
// ?wait=1 waits for the job instead, looping until no rows are pending.
// Because a waiting request only joins the job, a client that disconnects
// gets 499 while the flush still commits; a ?wait=1 that would start a
// flush during drain gets 503; and the watchdog, the flush health
// component, and Close's drain see every flush. The flush's span tree is
// the trace GET /v1/debug/traces/{flushJobId} returns.

// flushJob is one flush's lifecycle handle. All result fields are set
// before done is closed and never written after, so any goroutine that
// observed <-done may read them without ds.mu.
type flushJob struct {
	ID   string
	done chan struct{}

	err     error
	mode    core.FlushMode
	summary Summary
	report  reportJSON
}

// maxFlushJobHistory bounds the per-dataset finished-job map; the oldest
// jobs are evicted first. Polling a job evicted before its client came
// back yields a 404, which the client should treat as "done long ago".
const maxFlushJobHistory = 64

// newFlushJobID draws a random 8-hex-digit job id.
func newFlushJobID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Job ids only need uniqueness within one dataset's history.
		return fmt.Sprintf("fl_%08x", len(b))
	}
	return "fl_" + hex.EncodeToString(b[:])
}

// registerFlushJobLocked adds job to the dataset's poll map, evicting the
// oldest finished entries past the history bound. Caller holds ds.mu.
func registerFlushJobLocked(ds *Dataset, job *flushJob) {
	if ds.flushJobs == nil {
		ds.flushJobs = make(map[string]*flushJob)
	}
	ds.flushJobs[job.ID] = job
	ds.jobOrder = append(ds.jobOrder, job.ID)
	for len(ds.jobOrder) > maxFlushJobHistory {
		delete(ds.flushJobs, ds.jobOrder[0])
		ds.jobOrder = ds.jobOrder[1:]
	}
}

// finishFlushLocked publishes a job's outcome and releases the
// single-flight slot. Caller holds ds.mu.
func finishFlushLocked(ds *Dataset, job *flushJob, err error, summary Summary, rep reportJSON, mode core.FlushMode) {
	job.err = err
	job.summary = summary
	job.report = rep
	job.mode = mode
	close(job.done)
	if ds.curFlush == job {
		ds.curFlush = nil
	}
}

// startBackgroundFlushLocked starts (or joins) the dataset's
// single-flight flush job. Caller holds ds.mu. Returns nil when there is
// nothing to flush, the dataset is deleted, or the server is draining —
// new flush work must not start once shutdown began, or Close could never
// finish waiting.
func (s *Server) startBackgroundFlushLocked(ds *Dataset) *flushJob {
	if ds.curFlush != nil {
		return ds.curFlush
	}
	if ds.deleted || s.draining.Load() || ds.upd.Pending() == 0 {
		return nil
	}
	job := &flushJob{ID: newFlushJobID(), done: make(chan struct{})}
	ds.curFlush = job
	registerFlushJobLocked(ds, job)
	s.flushWG.Add(1)
	go s.runBackgroundFlush(ds, job)
	return job
}

// runBackgroundFlush drives one flush job to completion. It is the only
// code that runs the Begin → Run → Complete/Abort protocol, so every
// flush — auto-triggered, 202, or ?wait=1 — gets the watchdog, the
// fault-injection hook, the Close drain, and one trace with the job's id
// (op "flush_background").
func (s *Server) runBackgroundFlush(ds *Dataset, job *flushJob) {
	defer s.flushWG.Done()
	s.trackFlush(ds, job)
	defer s.untrackFlush(job)
	ctx, tr := obs.NewTrace(s.lifecycle, job.ID, "flush_background")
	untrack := s.traces.Track(tr)
	// finish retains the trace before publishing the outcome, so a client
	// woken by job.done finds the flush's span tree and stage timings.
	finish := func(res *core.Result, mode core.FlushMode, err error) {
		tr.Finish()
		untrack()
		snap := tr.Snapshot()
		s.traces.Add(snap)
		snap.EachSpan(s.metrics.ObserveStage)

		ds.Lock()
		defer ds.Unlock()
		summary := ds.refreshSummaryLocked()
		if err != nil {
			finishFlushLocked(ds, job, err, summary, reportJSON{}, "")
			return
		}
		rep := reportToJSON(ds.upd.Current().Schema(), &res.Report)
		finishFlushLocked(ds, job, nil, summary, rep, mode)
		// Appends that landed during the encrypt may already justify the
		// next flush; chain it instead of waiting for the next append.
		if ds.upd.ShouldFlush() {
			s.startBackgroundFlushLocked(ds)
		}
	}

	ds.Lock()
	plan, err := ds.upd.BeginFlush()
	ds.Unlock()
	if plan == nil && err == nil {
		// Unreachable: the job started with rows pending and holds the
		// single-flight slot, so no other flush can have taken them.
		err = errors.New("no pending rows to flush")
	}
	if err != nil {
		finish(nil, "", err)
		return
	}

	run := plan.Run
	if h := s.testFlushHook; h != nil {
		run = func(jc context.Context) error {
			h()
			return plan.Run(jc)
		}
	}
	if err := s.runJob(ctx, run); err != nil {
		ds.Lock()
		ds.upd.AbortFlush(plan)
		ds.Unlock()
		// Not an Error-level event: the rows stay durably pending (WAL +
		// buffer) and the next flush retries them.
		s.logf("dataset %s: flush failed, rows stay pending: %v", ds.ID, err)
		finish(nil, "", err)
		return
	}

	ds.Lock()
	res, err := ds.upd.CompleteFlush(plan)
	if err != nil {
		ds.Unlock()
		s.logf("dataset %s: committing flush: %v", ds.ID, err)
		finish(nil, "", err)
		return
	}
	mode := ds.upd.LastFlush
	rec := s.captureRecordLocked(ds)
	ds.Unlock()

	s.recordFlush(mode)
	if rec != nil {
		// Outside ds.mu: SaveSnapshot compacts the WAL through the
		// committer goroutine, whose commit callbacks need ds.mu. A failed
		// snapshot does not lose the flush — the WAL still holds every
		// batch, so recovery replays them as pending rows.
		if err := s.st.SaveSnapshot(ctx, rec); err != nil {
			s.logf("dataset %s: persisting post-flush snapshot: %v", ds.ID, err)
		}
	}
	finish(res, mode, nil)
}

// handleFlush is POST /v1/datasets/{id}/flush. With nothing pending and
// no job running it answers 200 at once. Otherwise it starts (or joins)
// the dataset's flush job: without ?wait=1 it answers 202 with the job
// id; with ?wait=1 it waits for the job and loops until no rows are
// pending, answering 200 with the last job's id and mode, or that job's
// error.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.dataset(w, r)
	if !ok {
		return
	}
	wait := r.URL.Query().Get("wait") == "1"
	var last *flushJob
	for {
		ds.Lock()
		if ds.deleted {
			ds.Unlock()
			writeError(w, http.StatusNotFound, "no dataset %q", ds.ID)
			return
		}
		if err := s.hydrateLocked(r.Context(), ds); err != nil {
			ds.Unlock()
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if ds.curFlush == nil && ds.upd.Pending() == 0 {
			summary := ds.refreshSummaryLocked()
			res := ds.upd.Result()
			rep := reportToJSON(ds.upd.Current().Schema(), &res.Report)
			ds.Unlock()
			resp := map[string]any{"dataset": summary, "report": rep}
			if last != nil {
				// Only a flush this request waited on reports its mode; a
				// no-op flush would otherwise echo the previous flush's.
				resp["flushJobId"] = last.ID
				resp["flushMode"] = string(last.mode)
			}
			inlineTrace(r, resp)
			writeJSON(w, http.StatusOK, resp)
			return
		}
		job := s.startBackgroundFlushLocked(ds)
		ds.Unlock()
		if job == nil {
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		if !wait {
			w.Header().Set("Location", fmt.Sprintf("/v1/datasets/%s/flush/%s", ds.ID, job.ID))
			resp := map[string]any{
				"flushJobId": job.ID,
				"status":     "running",
				"dataset":    ds.Summary(),
			}
			inlineTrace(r, resp)
			writeJSON(w, http.StatusAccepted, resp)
			return
		}
		select {
		case <-job.done:
		case <-r.Context().Done():
			// The job runs on without this client and commits.
			writeError(w, s.errStatus(r, r.Context().Err()), "waiting for flush: %v", r.Context().Err())
			return
		}
		if job.err != nil {
			// The rows stay pending, as for a failed poll.
			writeError(w, s.errStatus(r, job.err), "flushing: %v", job.err)
			return
		}
		last = job // re-check: more rows may be pending by now
	}
}

// handleFlushJob is GET /v1/datasets/{id}/flush/{jobID}: poll an async
// flush. Running jobs answer {"status":"running"}; finished jobs carry
// the same dataset/report/flushMode payload the synchronous flush would
// have returned, or the error that failed them.
func (s *Server) handleFlushJob(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.dataset(w, r)
	if !ok {
		return
	}
	jobID := r.PathValue("jobID")
	ds.Lock()
	job := ds.flushJobs[jobID]
	ds.Unlock()
	if job == nil {
		writeError(w, http.StatusNotFound, "no flush job %q for dataset %s", jobID, ds.ID)
		return
	}
	select {
	case <-job.done:
		if job.err != nil {
			writeJSON(w, http.StatusOK, map[string]any{
				"flushJobId": job.ID,
				"status":     "failed",
				"error":      job.err.Error(),
				"dataset":    job.summary,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"flushJobId": job.ID,
			"status":     "done",
			"flushMode":  string(job.mode),
			"dataset":    job.summary,
			"report":     job.report,
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"flushJobId": job.ID,
			"status":     "running",
			"dataset":    ds.Summary(),
		})
	}
}

// captureRecordLocked snapshots the dataset's durable state for
// SaveSnapshot. Caller holds ds.mu (or owns the dataset exclusively);
// the WALSeq watermark is bufSeq — exactly the batches whose rows the
// captured updater state includes. Returns nil without a store or for a
// deleted dataset (its directory is being torn down).
func (s *Server) captureRecordLocked(ds *Dataset) *store.Record {
	if s.st == nil || ds.deleted {
		return nil
	}
	return &store.Record{
		ID:      ds.ID,
		Name:    ds.Name,
		Created: ds.Created,
		Config:  ds.cfg,
		Updater: ds.upd.State(),
		WALSeq:  ds.bufSeq,
	}
}
