// Package par is the deterministic fan-out primitive shared by the
// fault-injection and benchmark harnesses: a fixed pool of goroutines
// drains an indexed job list, and every job writes only its own result
// slot. Because job i's inputs are derived from i alone and the caller
// merges slots in index order, the combined result is bit-identical
// regardless of the worker count or the order in which jobs finish.
//
// A panicking job does not take the process down: the pool recovers it
// into a *PanicError, the panicking worker stops, and the other workers
// finish as they would after an ordinary job error.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic recovered by the pool: which worker
// panicked, the value it panicked with and its stack at the panic.
type PanicError struct {
	Worker int
	Value  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker %d panicked: %v\n%s", e.Worker, e.Value, e.Stack)
}

// Unwrap exposes a panic value that is itself an error.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// guard runs fn, turning a panic into a *PanicError for worker w.
func guard(w int, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Worker: w, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Workers resolves a worker-count knob: n <= 0 selects GOMAXPROCS, and the
// pool is never larger than the job count.
func Workers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ForEach runs fn(i) for every i in [0, jobs) on at most workers
// goroutines (resolved through Workers). It returns the error of the
// lowest-indexed failing job, so the reported error does not depend on
// scheduling. With one worker the jobs run inline on the calling
// goroutine in index order.
func ForEach(jobs, workers int, fn func(i int) error) error {
	return ForEachShard(jobs, workers, func(_, i int) error { return fn(i) })
}

// ForEachCtx is ForEach with cancellation: once ctx is done no further
// jobs start, and ctx.Err() is returned (it takes precedence over job
// errors, which a cancellation typically causes downstream).
func ForEachCtx(ctx context.Context, jobs, workers int, fn func(i int) error) error {
	return ForEachShardCtx(ctx, jobs, workers, func(_, i int) error { return fn(i) })
}

// RunWorkers starts one goroutine per worker index in [0, workers) and
// runs fn(w) on each. Unlike ForEachShard there is no shared job counter:
// the caller statically partitions the work by worker index (e.g. a
// round-robin split of a sorted job list), trading dynamic balance for a
// per-worker processing order the caller controls. With one worker fn runs
// inline on the calling goroutine. The lowest-indexed worker's error is
// returned, so the reported error does not depend on scheduling.
func RunWorkers(workers int, fn func(w int) error) error {
	return RunWorkersCtx(context.Background(), workers, func(_ context.Context, w int) error {
		return fn(w)
	})
}

// RunWorkersCtx is RunWorkers with cancellation. Each worker receives ctx
// and is expected to poll ctx.Err() between jobs of its static partition —
// the pool itself cannot preempt a running job. When ctx is done by the
// time all workers return, ctx.Err() is reported in preference to worker
// errors, so callers see the cancellation rather than its knock-on
// failures.
func RunWorkersCtx(ctx context.Context, workers int, fn func(ctx context.Context, w int) error) error {
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := guard(0, func() error { return fn(ctx, 0) })
		return ctxFirst(ctx, err)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = guard(w, func() error { return fn(ctx, w) })
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ctxFirst(ctx, err)
		}
	}
	return ctx.Err()
}

// ctxFirst prefers the context's cancellation error over a job error.
func ctxFirst(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// ForEachShard is ForEach with the worker's pool index exposed:
// fn(worker, i) with worker in [0, Workers(workers, jobs)). A worker
// index is owned by exactly one goroutine, so fn may accumulate into
// per-worker shards (e.g. obs.Collector) without synchronization. Which
// jobs land on which shard depends on scheduling; shard contents are
// only deterministic once merged with a commutative fold.
func ForEachShard(jobs, workers int, fn func(worker, i int) error) error {
	return ForEachShardCtx(context.Background(), jobs, workers, fn)
}

// ForEachShardCtx is ForEachShard with cancellation: the pool stops
// claiming jobs once ctx is done (a job already running is not
// preempted), and ctx.Err() is returned in preference to job errors.
func ForEachShardCtx(ctx context.Context, jobs, workers int, fn func(worker, i int) error) error {
	if jobs <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, jobs)
	if workers == 1 {
		for i := 0; i < jobs; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := guard(0, func() error { return fn(0, i) }); err != nil {
				return ctxFirst(ctx, err)
			}
		}
		return ctx.Err()
	}
	errs := make([]error, jobs)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1))
				if i >= jobs {
					return
				}
				errs[i] = guard(w, func() error { return fn(w, i) })
				if _, ok := errs[i].(*PanicError); ok {
					return // the worker's state is suspect; the others carry on
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ctxFirst(ctx, err)
		}
	}
	return ctx.Err()
}
