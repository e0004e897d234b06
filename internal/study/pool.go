package study

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"smtflex/internal/faults"
	"smtflex/internal/obs"
)

// ErrWorkerPanic is the sentinel wrapped by errors produced when an
// evaluation handed to the worker pool panics. The panic is contained at the
// pool boundary: the sweep fails with this error instead of unwinding the
// whole process, so one bad evaluation cannot take down a daemon serving
// other requests.
var ErrWorkerPanic = errors.New("study: evaluation panicked")

// The parallel experiment engine: every sweep and figure driver fans its
// independent evaluations over a bounded worker pool and writes results into
// index-addressed slots, so the assembled tables are bit-for-bit identical
// to the serial engine's regardless of completion order. The caches the
// workers stress (profiles, solo rates, sweeps) use memo.Cache, whose
// singleflight semantics make concurrent misses compute once.
//
// The pool is also the engine's cancellation point: runIndexed checks the
// context before handing each index to a worker, so when a server request is
// abandoned mid-sweep the remaining grid is dropped instead of burning
// workers for a result nobody will read. In-progress evaluations finish
// (they are short); no new ones start.
//
// Observability: each task runs under a "pool.task" span carrying its index
// and its queue wait — the time between the batch entering the pool and the
// task starting, the engine's analog of dispatch stalls. The wait also feeds
// the optional queue histogram (the daemon's smtflexd_pool_queue_seconds).

// workers resolves the pool size: Parallelism if positive, else GOMAXPROCS.
func (s *Study) workers() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runIndexed runs fn(ctx, i) for every i in [0, n) on up to workers
// goroutines, stopping early if ctx is cancelled. On a task error the pool
// stops handing out new indices and returns the error with the lowest index
// among those observed (the serial engine's error, unless a later index
// failed first and won the race to stop the pool). On cancellation it
// returns ctx.Err(), unless every index was already handed out and
// completed — then the work is done and the cancellation is irrelevant. With
// one worker it degenerates to the plain serial loop. queue, when non-nil,
// receives each task's queue wait in seconds. A progress hook carried by ctx
// (see WithProgress) is called after every completed task with the number of
// tasks finished so far. Calls are serialized and their counts strictly
// increase, so the final call is always (n, n) on a successful run; with no
// hook, completion takes no lock.
func runIndexed(ctx context.Context, workers, n int, queue *obs.Histogram, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	prog := progressFrom(ctx)
	enqueued := time.Now()
	var failed atomic.Bool
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := safeCall(ctx, enqueued, queue, i, fn, &failed); err != nil {
				return err
			}
			if prog != nil {
				prog(i+1, n)
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		progMu   sync.Mutex // orders progress calls; guards done
		done     int
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					// Only a cancellation that actually skips an index is an
					// error; i was due to run and will not.
					record(i, err)
					return
				}
				if err := safeCall(ctx, enqueued, queue, i, fn, &failed); err != nil {
					record(i, err)
					return
				}
				if prog != nil {
					progMu.Lock()
					done++
					prog(done, n)
					progMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// safeCall runs fn(ctx, i) under a "pool.task" span, with the worker
// fault-injection site applied and any panic converted into an error
// wrapping ErrWorkerPanic, so both the serial and the parallel engine
// contain evaluation panics identically. A panic sets failed before its
// stack is formatted, so a parallel pool stops handing out indices at once.
func safeCall(ctx context.Context, enqueued time.Time, queue *obs.Histogram, i int, fn func(ctx context.Context, i int) error, failed *atomic.Bool) (err error) {
	wait := time.Since(enqueued)
	queue.Observe(wait.Seconds())
	ctx, sp := obs.StartSpan(ctx, "pool.task")
	sp.SetAttr("index", i)
	sp.SetAttr("queue_ns", wait.Nanoseconds())
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			failed.Store(true)
			err = fmt.Errorf("%w: task %d: %v\n%s", ErrWorkerPanic, i, r, debug.Stack())
		}
	}()
	if err := faults.Check(faults.SiteWorker); err != nil {
		return fmt.Errorf("task %d: %w", i, err)
	}
	return fn(ctx, i)
}
