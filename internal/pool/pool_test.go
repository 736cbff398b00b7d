package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := New(workers)
			defer p.Close()
			const n = 1000
			seen := make([]atomic.Int32, n)
			if err := p.ForEach(context.Background(), n, func(ctx context.Context, i int) error {
				seen[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("index %d visited %d times", i, got)
				}
			}
		})
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := New(workers)
	defer p.Close()
	var active, peak atomic.Int32
	err := p.ForEach(context.Background(), 64, func(ctx context.Context, i int) error {
		a := active.Add(1)
		for {
			cur := peak.Load()
			if a <= cur || peak.CompareAndSwap(cur, a) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, pool has %d workers", p, workers)
	}
}

func TestForEachPropagatesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		defer p.Close()
		boom := errors.New("boom")
		err := p.ForEach(context.Background(), 100, func(ctx context.Context, i int) error {
			if i == 13 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, boom)
		}
	}
}

func TestForEachRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		defer p.Close()
		err := p.ForEach(context.Background(), 8, func(ctx context.Context, i int) error {
			if i == 3 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("workers=%d: want panic error, got %v", workers, err)
		}
	}
}

func TestForEachHonorsCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		defer p.Close()
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		err := p.ForEach(ctx, 10000, func(ctx context.Context, i int) error {
			if calls.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if c := calls.Load(); c >= 10000 {
			t.Fatalf("workers=%d: cancellation did not stop the batch (%d calls)", workers, c)
		}
	}
}

func TestRunAfterClose(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		p.Close()
		if err := p.Run(context.Background(), func(ctx context.Context) error { return nil }); !errors.Is(err, ErrClosed) {
			t.Fatalf("workers=%d: got %v, want ErrClosed", workers, err)
		}
		if err := p.ForEach(context.Background(), 3, func(ctx context.Context, i int) error { return nil }); !errors.Is(err, ErrClosed) {
			t.Fatalf("workers=%d: ForEach got %v, want ErrClosed", workers, err)
		}
	}
}

func TestSerialForEachRunsInOrder(t *testing.T) {
	p := New(1)
	defer p.Close()
	var order []int
	if err := p.ForEach(context.Background(), 32, func(ctx context.Context, i int) error {
		order = append(order, i) // safe: one worker runs every index
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial pool ran index %d at position %d", got, i)
		}
	}
}

// peakTracker records the largest number of tasks seen running at once.
type peakTracker struct{ active, peak atomic.Int32 }

func (pt *peakTracker) track() {
	a := pt.active.Add(1)
	for {
		cur := pt.peak.Load()
		if a <= cur || pt.peak.CompareAndSwap(cur, a) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	pt.active.Add(-1)
}

func TestSingleTaskBatchOccupiesWorker(t *testing.T) {
	// A ForEach of one task, or a Run, must go through a worker slot, so
	// concurrent callers sharing a pool respect its bound at every width.
	submit := map[string]func(p *Pool, pt *peakTracker){
		"ForEach": func(p *Pool, pt *peakTracker) {
			_ = p.ForEach(context.Background(), 1, func(ctx context.Context, i int) error {
				pt.track()
				return nil
			})
		},
		"Run": func(p *Pool, pt *peakTracker) {
			_ = p.Run(context.Background(), func(ctx context.Context) error {
				pt.track()
				return nil
			})
		},
	}
	for name, call := range submit {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				p := New(workers)
				defer p.Close()
				var pt peakTracker
				var wg sync.WaitGroup
				for c := 0; c < 4; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						call(p, &pt)
					}()
				}
				wg.Wait()
				if got := pt.peak.Load(); got > int32(workers) {
					t.Fatalf("4 concurrent callers peaked at %d running tasks on a %d-worker pool", got, workers)
				}
			})
		}
	}
}

// TestPoolRunsJobsInParallel proves the pool genuinely overlaps tasks:
// two tasks rendezvous with each other, which can only succeed if both
// execute at the same time.
func TestPoolRunsJobsInParallel(t *testing.T) {
	p := New(2)
	defer p.Close()
	barrier := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Run(t.Context(), func(ctx context.Context) error {
				select {
				case barrier <- struct{}{}: // partner arrived second
				case <-barrier: // partner arrived first
				case <-time.After(10 * time.Second):
					return fmt.Errorf("task %d: partner never arrived — tasks serialized", i)
				}
				return nil
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
}

// TestPoolRecoversJobPanic checks a panicking Run surfaces as an error and
// leaves the worker alive for the next task.
func TestPoolRecoversJobPanic(t *testing.T) {
	p := New(1)
	defer p.Close()
	err := p.Run(context.Background(), func(ctx context.Context) error { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking task returned %v, want wrapped panic", err)
	}
	if err := p.Run(context.Background(), func(ctx context.Context) error { return nil }); err != nil {
		t.Fatalf("pool dead after panic: %v", err)
	}
}

// TestPoolRunAfterClose checks that a closed single-worker pool, the
// width the server uses for its pipeline jobs, refuses new work with
// ErrClosed instead of blocking.
func TestPoolRunAfterClose(t *testing.T) {
	p := New(1)
	p.Close()
	err := p.Run(context.Background(), func(ctx context.Context) error { return nil })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}

// TestPanicErrorOmitsStack checks that a panic's error message carries the
// panic value but not the goroutine stack (the message reaches clients),
// while the stack stays reachable through *PanicError.
func TestPanicErrorOmitsStack(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		defer p.Close()
		errs := map[string]error{
			"Run": p.Run(context.Background(), func(ctx context.Context) error { panic("kaboom") }),
			"ForEach": p.ForEach(context.Background(), 8, func(ctx context.Context, i int) error {
				if i == 3 {
					panic("kaboom")
				}
				return nil
			}),
		}
		for name, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Fatalf("workers=%d %s: got %v, want the panic value", workers, name, err)
			}
			if strings.Contains(err.Error(), "goroutine ") {
				t.Fatalf("workers=%d %s: error message carries a stack: %q", workers, name, err)
			}
			var pe *PanicError
			if !errors.As(err, &pe) || len(pe.Stack) == 0 {
				t.Fatalf("workers=%d %s: want a *PanicError with a stack, got %#v", workers, name, err)
			}
		}
	}
}
