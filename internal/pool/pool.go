// Package pool provides the one bounded worker pool of the tree. Every
// parallel stage of the F² pipeline (instance-cipher filling, sharded row
// emission, false-positive border searches, table decryption) fans out
// through a Pool instead of spawning unbounded goroutines, and f2served
// runs its pipeline jobs (create, flush, decrypt, FD discovery, report)
// on one.
//
// A Pool is a fixed set of worker goroutines. Context cancellation is
// honored both while a task waits for a worker and between tasks of a
// batch, and a panicking task becomes a *PanicError for its submitter,
// so one poisoned shard cannot take down a whole service process.
//
// Invariants:
//
//   - at most Workers tasks execute concurrently, no matter how many
//     Run/ForEach calls are in flight;
//   - a Pool with one worker runs a ForEach batch on that worker in
//     index order;
//   - ForEach never returns before every started task has finished, so
//     callers may hand tasks shared, shard-partitioned state without
//     further synchronization.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Run and ForEach once Close has been called.
var ErrClosed = errors.New("pool: closed")

// PanicError is what a panicking task returns. Error carries only the
// panic value, so the error is safe to show a client; Stack holds the
// panicking goroutine's stack for the operator's log.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("pool: task panic: %v", e.Value) }

// Task is one unit of work executed on a pool worker.
type Task func(ctx context.Context) error

// Pool is a fixed-size worker pool.
type Pool struct {
	jobs    chan job
	quit    chan struct{}
	wg      sync.WaitGroup
	workers int
	queued  atomic.Int64
	active  atomic.Int64
}

type job struct {
	ctx  context.Context
	fn   Task
	done chan error
}

// New starts a pool with the given number of workers (minimum 1).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{jobs: make(chan job), quit: make(chan struct{}), workers: workers}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// Stats reports the configured workers, the tasks currently executing,
// and the tasks waiting for a worker.
func (p *Pool) Stats() (workers int, active, queued int64) {
	return p.workers, p.active.Load(), p.queued.Load()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case j := <-p.jobs:
			p.queued.Add(-1)
			if err := j.ctx.Err(); err != nil {
				j.done <- err // abandoned while queued
				continue
			}
			p.active.Add(1)
			err := protect(j.ctx, j.fn)
			p.active.Add(-1)
			j.done <- err
		}
	}
}

// protect executes one task, converting a panic into a *PanicError.
func protect(ctx context.Context, fn Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}

// Run executes fn on a pool worker and blocks until it finishes,
// returning its error. While the task waits for a worker, a cancelled ctx
// abandons it; once running, cancellation is fn's responsibility. After
// Close, Run returns ErrClosed.
func (p *Pool) Run(ctx context.Context, fn Task) error {
	j := job{ctx: ctx, fn: fn, done: make(chan error, 1)}
	p.queued.Add(1)
	select {
	case p.jobs <- j:
	case <-ctx.Done():
		p.queued.Add(-1)
		return ctx.Err()
	case <-p.quit:
		p.queued.Add(-1)
		return ErrClosed
	}
	return <-j.done
}

// ForEach runs fn(ctx, i) for every i in [0, n), spreading the calls
// across the pool's workers, and returns after all started calls have
// finished.
//
// Indices are claimed dynamically (an atomic counter, not static
// striping), so uneven task costs still balance. The first error —
// including a recovered panic or ctx cancellation — stops further indices
// from being claimed and is returned; fn may therefore be skipped for
// some indices on failure, and callers must treat the batch's output as
// invalid as a whole.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	var next atomic.Int64
	var stop atomic.Bool
	claim := func(ctx context.Context) error {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				stop.Store(true)
				return err
			}
		}
		return nil
	}
	// One claiming task per worker, each submitted through Run so that
	// concurrent batches sharing the pool respect its bound. The calling
	// goroutine submits the first itself.
	errs := make([]error, min(p.workers, n))
	var wg sync.WaitGroup
	for r := 1; r < len(errs); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = p.Run(ctx, claim)
		}(r)
	}
	errs[0] = p.Run(ctx, claim)
	wg.Wait()
	// Prefer a task's own failure over a bare cancellation error: the
	// former explains the latter.
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			ctxErr = err
			continue
		}
		return err
	}
	return ctxErr
}

// Close stops accepting work and waits for running tasks to finish.
// Tasks still waiting for a worker see their Run return ErrClosed.
func (p *Pool) Close() {
	close(p.quit)
	p.wg.Wait()
}
