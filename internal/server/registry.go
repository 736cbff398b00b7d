package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"f2/internal/core"
	"f2/internal/store"
)

// Dataset is one registered relation: its F² configuration (including the
// owner key — f2served is an *owner-side* service, the untrusted storage
// server of the paper's model never sees this struct) and the updater
// holding the plaintext copy, the append buffer, and the latest
// ciphertext. All access to the updater goes through Lock/Unlock; the
// registry itself only guards the id → dataset map.
type Dataset struct {
	ID      string
	Name    string
	Created time.Time

	mu  sync.Mutex
	cfg core.Config
	// upd is nil for a lazily restored dataset whose state still lives in
	// the store's chunked snapshot; Server.hydrateLocked materializes it on
	// the first request that needs the tables. Metadata reads (list, get,
	// flush-job polls) run off the cached Summary and never force it.
	upd *core.Updater

	// lazyTail is the WAL tail retained by a lazy restore: acknowledged
	// batches newer than the snapshot, replayed into the updater at
	// hydration time. nil once upd is set. Guarded by mu.
	lazyTail []store.Batch

	// walSeq is the sequence number of the last batch staged for
	// journaling (0 before the first append); bufSeq is the sequence of
	// the last batch whose group commit completed and whose rows entered
	// the updater — the snapshot watermark: every batch at or below it is
	// inside the updater state a snapshot captures, every batch above it
	// must survive WAL compaction. deleted marks a dataset whose removal
	// has begun, so a request that was already waiting on mu when the
	// delete ran must not journal to a store directory that is being torn
	// down. All guarded by mu.
	walSeq  uint64
	bufSeq  uint64
	deleted bool

	// pendingBytes is the ingest backpressure account: approximate bytes
	// of appends staged for group commit but not yet committed into the
	// updater. Guarded by mu; mirrored into the server-wide
	// f2_ingest_queue_depth gauge.
	pendingBytes int64

	// curFlush is the single-flight flush job in progress (nil when
	// idle); flushJobs keeps recently finished jobs addressable for
	// polling, evicted FIFO via jobOrder. Guarded by mu.
	curFlush  *flushJob
	flushJobs map[string]*flushJob
	jobOrder  []string

	// hydrated mirrors "upd is non-nil" as an atomic, so the hydration
	// health component can report lazy datasets without touching mu —
	// which a slow pipeline run may hold for seconds.
	hydrated atomic.Bool

	// statMu guards the cached summary so metadata reads (list, get)
	// never wait on d.mu while a multi-second rebuild holds it.
	statMu sync.Mutex
	stats  Summary
}

// Lock serializes pipeline operations (append, flush, decrypt, report) on
// this dataset. Operations on different datasets proceed in parallel.
func (d *Dataset) Lock() { d.mu.Lock() }

// Unlock releases Lock.
func (d *Dataset) Unlock() { d.mu.Unlock() }

// Summary is the JSON shape of a dataset's metadata.
type Summary struct {
	ID            string    `json:"id"`
	Name          string    `json:"name"`
	Created       time.Time `json:"created"`
	Rows          int       `json:"rows"`
	PendingRows   int       `json:"pendingRows"`
	EncryptedRows int       `json:"encryptedRows"`
	Alpha         float64   `json:"alpha"`
	SplitFactor   int       `json:"splitFactor"`
	MASCount      int       `json:"masCount"`
	Rebuilds      int       `json:"rebuilds"`
	// IncrementalFlushes counts appends served by the incremental update
	// engine (no full re-encryption); LastFlushMode says which path the
	// most recent flush took.
	IncrementalFlushes int     `json:"incrementalFlushes"`
	LastFlushMode      string  `json:"lastFlushMode"`
	Overhead           float64 `json:"overhead"`
	// Parallelism is the effective worker count the dataset's pipeline
	// runs fan out across (its core.Config.Parallelism resolved against
	// GOMAXPROCS).
	Parallelism int `json:"parallelism"`
}

// refreshSummaryLocked recomputes and caches the summary; the caller
// holds d.mu (every state-changing handler does).
func (d *Dataset) refreshSummaryLocked() Summary {
	if d.upd == nil {
		// Lazily restored and not yet hydrated: the boot-time summary
		// (index stats plus retained WAL tail) is still exact, because
		// every state-changing path hydrates before mutating.
		return d.Summary()
	}
	res := d.upd.Result()
	s := Summary{
		ID:                 d.ID,
		Name:               d.Name,
		Created:            d.Created,
		Rows:               d.upd.Rows(),
		PendingRows:        d.upd.Pending(),
		EncryptedRows:      res.Encrypted.NumRows(),
		Alpha:              d.cfg.Alpha,
		SplitFactor:        d.cfg.SplitFactor,
		MASCount:           len(res.MASs),
		Rebuilds:           d.upd.Rebuilds,
		IncrementalFlushes: d.upd.IncrementalFlushes,
		LastFlushMode:      string(d.upd.LastFlush),
		Overhead:           res.Report.Overhead(),
		Parallelism:        d.cfg.Workers(),
	}
	d.statMu.Lock()
	d.stats = s
	d.statMu.Unlock()
	return s
}

// Summary returns the cached metadata without touching d.mu, so it stays
// responsive while a rebuild runs.
func (d *Dataset) Summary() Summary {
	d.statMu.Lock()
	defer d.statMu.Unlock()
	return d.stats
}

// Registry maps dataset ids to datasets under a read-write lock.
type Registry struct {
	mu       sync.RWMutex
	data     map[string]*Dataset
	reserved map[string]bool // ids drawn by Reserve, not yet published

	// idGen draws candidate dataset ids; overridable in tests to force
	// collisions.
	idGen func() (string, error)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		data:     make(map[string]*Dataset),
		reserved: make(map[string]bool),
		idGen:    newDatasetID,
	}
}

// newDataset builds an unpublished dataset and primes its summary cache.
func newDataset(id, name string, cfg core.Config, upd *core.Updater) *Dataset {
	ds := &Dataset{ID: id, Name: name, Created: time.Now().UTC(), cfg: cfg, upd: upd}
	ds.hydrated.Store(true)
	ds.refreshSummaryLocked() // no concurrency yet: ds is not published
	return ds
}

// maxIDAttempts bounds the collision-retry loop of Add. With 48-bit
// random ids a single collision is already a ~n/2^48 event, so hitting
// the bound means the id source is broken, not unlucky.
const maxIDAttempts = 8

// Reserve draws a fresh unique dataset id and holds it against
// concurrent creates without publishing anything under it, so the caller
// can finish expensive setup (persisting the snapshot) before clients
// can address the id. release returns the id to the pool; calling it
// after Publish is a harmless no-op. An id collision — however unlikely
// — is retried with a fresh id rather than silently double-assigning.
func (r *Registry) Reserve() (id string, release func(), err error) {
	for attempt := 0; attempt < maxIDAttempts; attempt++ {
		// Draw outside the lock: idGen is a function value (tests override
		// it), and calling out through it under r.mu is the lockheld class.
		// It is only written at construction or before serving starts.
		id, err := r.idGen()
		if err != nil {
			return "", nil, err
		}
		r.mu.Lock()
		if _, taken := r.data[id]; taken || r.reserved[id] {
			r.mu.Unlock()
			continue
		}
		r.reserved[id] = true
		r.mu.Unlock()
		release := func() {
			r.mu.Lock()
			delete(r.reserved, id)
			r.mu.Unlock()
		}
		return id, release, nil
	}
	return "", nil, fmt.Errorf("server: %d random dataset ids collided in a row", maxIDAttempts)
}

// Publish registers a dataset built under a Reserve'd id, making it
// addressable by clients.
func (r *Registry) Publish(ds *Dataset) {
	r.mu.Lock()
	delete(r.reserved, ds.ID)
	r.data[ds.ID] = ds
	r.mu.Unlock()
}

// Add registers a freshly encrypted dataset under a new unique id:
// Reserve + Publish for callers with no setup between the two.
func (r *Registry) Add(name string, cfg core.Config, upd *core.Updater) (*Dataset, error) {
	id, _, err := r.Reserve()
	if err != nil {
		return nil, err
	}
	ds := newDataset(id, name, cfg, upd)
	r.Publish(ds)
	return ds, nil
}

// RestoreLazy registers a dataset shell recovered from the durable store
// under its original id: identity, config, and a summary computed from
// the snapshot index, with the updater state left on disk. tail is the
// WAL tail to replay when the dataset hydrates. Unlike Add it never
// invents an id, and a duplicate is an error (two store entries claiming
// one id).
func (r *Registry) RestoreLazy(id, name string, created time.Time, cfg core.Config, sum Summary, tail []store.Batch) (*Dataset, error) {
	ds := &Dataset{ID: id, Name: name, Created: created, cfg: cfg, lazyTail: tail}
	ds.stats = sum // not yet published: no concurrent Summary readers
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.data[id]; taken {
		return nil, fmt.Errorf("server: dataset id %q already registered", id)
	}
	r.data[id] = ds
	return ds, nil
}

// Remove unregisters a dataset, returning it for teardown. Without this,
// datasets leak forever: the map only ever grew before deletes existed.
func (r *Registry) Remove(id string) (*Dataset, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds, ok := r.data[id]
	if ok {
		delete(r.data, id)
	}
	return ds, ok
}

// Get looks a dataset up by id.
func (r *Registry) Get(id string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds, ok := r.data[id]
	return ds, ok
}

// List returns all datasets ordered by creation time, then id.
func (r *Registry) List() []*Dataset {
	r.mu.RLock()
	out := make([]*Dataset, 0, len(r.data))
	for _, ds := range r.data {
		out = append(out, ds)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.data)
}

// newDatasetID draws a random 12-hex-digit id.
func newDatasetID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating dataset id: %w", err)
	}
	return "ds_" + hex.EncodeToString(b[:]), nil
}
