// Package pool provides the bounded-concurrency primitives shared by
// the experiment drivers (internal/exp) and the fleet campaign engine
// (internal/campaign): a deterministic indexed map over a worker pool,
// optionally with per-worker state, with context cancellation and
// joined (not first-wins) error reporting.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default worker-pool size.
func DefaultWorkers() int { return runtime.NumCPU() }

// slots is the process-wide count of reserved worker slots: the outer
// workers of every campaign engine running in this process.
var slots atomic.Int64

// Reserve adds n worker slots to the process-wide count. The campaign
// engine reserves one slot per worker goroutine it starts, and each
// worker releases its slot as it exits.
func Reserve(n int) { slots.Add(int64(n)) }

// Release returns n worker slots to the process-wide count.
func Release(n int) { slots.Add(-int64(n)) }

// Reserved returns the number of worker slots currently reserved.
func Reserved() int { return int(slots.Load()) }

// Share returns the inner fan-out one job may use right now: the CPUs
// divided by the reserved slots, at least 1. Concurrent campaigns —
// the shards of one sharded campaign among them — split the machine
// through this one count instead of each assuming it owns every CPU.
func Share() int { return max(1, DefaultWorkers()/max(1, Reserved())) }

// Map runs f(i) for every i in [0, n) on at most workers goroutines
// and returns the results in index order. A workers value < 1 selects
// DefaultWorkers(). All scheduled calls run to completion; indexes not
// yet started when ctx is cancelled are skipped and reported through
// the joined error. Every per-index error is collected and joined with
// errors.Join, so one failure cannot mask another.
func Map[T any](ctx context.Context, workers, n int, f func(i int) (T, error)) ([]T, error) {
	return MapWith(ctx, workers, n, noState, func(_ struct{}, i int) (T, error) { return f(i) })
}

// noState is Map's per-worker state: none.
func noState() (struct{}, error) { return struct{}{}, nil }

// MapWith is Map with per-worker state: each worker goroutine builds
// its state with newState once, lazily before its first task, and
// passes it to every task it runs, so at most min(workers, n) states
// are built per call. A state is owned by one goroutine and never
// shared; tasks that reuse it must leave or restore whatever the next
// task relies on — including after a panic, which protect turns into
// that task's error while the worker keeps its state. A newState error
// fails the task that needed the state, and the worker tries again
// before its next task.
func MapWith[S, T any](ctx context.Context, workers, n int, newState func() (S, error), f func(s S, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	if workers < 1 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				state S
				built bool
			)
			for i := range idx {
				out[i], errs[i] = protect(i, func() (T, error) {
					if !built {
						s, err := newState()
						if err != nil {
							var zero T
							return zero, err
						}
						state, built = s, true
					}
					return f(state, i)
				})
			}
		}()
	}
	cancelled := false
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				errs[j] = fmt.Errorf("pool: task %d not started: %w", j, ctx.Err())
			}
			cancelled = true
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	if cancelled {
		return out, ctx.Err()
	}
	return out, nil
}

// protect runs task i, converting a panic into an error so one
// panicking task cannot tear down the whole pool.
func protect[T any](i int, task func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pool: task %d panicked: %v", i, r)
		}
	}()
	return task()
}
