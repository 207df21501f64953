package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	out, err := Map(context.Background(), 3, 17, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), workers, 64, func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", p, workers)
	}
}

func TestMapJoinsAllErrors(t *testing.T) {
	sentinel3 := errors.New("task three failed")
	sentinel7 := errors.New("task seven failed")
	_, err := Map(context.Background(), 2, 10, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, sentinel3
		case 7:
			return 0, sentinel7
		}
		return i, nil
	})
	if !errors.Is(err, sentinel3) || !errors.Is(err, sentinel7) {
		t.Fatalf("joined error should carry both failures, got: %v", err)
	}
}

func TestMapRecoversPanics(t *testing.T) {
	_, err := Map(context.Background(), 2, 4, func(i int) (int, error) {
		if i == 2 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
		t.Fatalf("panic should surface as error, got: %v", err)
	}
}

// TestMapWithBuildsOneStatePerWorker: each worker builds its state
// once, lazily, and only that worker's tasks see it — so a call builds
// at most min(workers, n) states and a state is never shared.
func TestMapWithBuildsOneStatePerWorker(t *testing.T) {
	type state struct {
		id    int64
		inUse atomic.Bool
	}
	var built atomic.Int64
	newState := func() (*state, error) { return &state{id: built.Add(1)}, nil }
	for _, tc := range []struct{ workers, n int }{{3, 40}, {8, 5}, {1, 9}} {
		built.Store(0)
		out, err := MapWith(context.Background(), tc.workers, tc.n, newState, func(s *state, i int) (int64, error) {
			if !s.inUse.CompareAndSwap(false, true) {
				return 0, fmt.Errorf("state %d used by two tasks at once", s.id)
			}
			defer s.inUse.Store(false)
			return s.id, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(min(tc.workers, tc.n))
		if n := built.Load(); n < 1 || n > want {
			t.Fatalf("workers=%d n=%d: built %d states, want 1..%d", tc.workers, tc.n, n, want)
		}
		for i, id := range out {
			if id < 1 || id > built.Load() {
				t.Fatalf("task %d ran on unknown state %d", i, id)
			}
		}
	}
}

// TestMapWithKeepsStateAcrossPanics: a panicking task fails alone; its
// worker keeps its state for the tasks after it. A newState error
// fails the task that needed the state, and the next task retries.
func TestMapWithKeepsStateAcrossPanics(t *testing.T) {
	var built atomic.Int64
	out, err := MapWith(context.Background(), 1, 4, func() (int64, error) {
		if built.Add(1) == 1 {
			return 0, errors.New("first build fails")
		}
		return built.Load(), nil
	}, func(s int64, i int) (int64, error) {
		if i == 2 {
			panic("boom")
		}
		return s, nil
	})
	if err == nil || !strings.Contains(err.Error(), "first build fails") || !strings.Contains(err.Error(), "task 2 panicked: boom") {
		t.Fatalf("want the build error and the panic, got: %v", err)
	}
	if built.Load() != 2 || out[1] != 2 || out[3] != 2 {
		t.Fatalf("built %d states, results %v; want one retry and the state kept across the panic", built.Load(), out)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	var once sync.Once
	_, err := Map(ctx, 1, 100, func(i int) (int, error) {
		started.Add(1)
		if i >= 5 {
			once.Do(cancel)
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in joined error, got: %v", err)
	}
	if n := started.Load(); n == 100 {
		t.Fatalf("cancellation should prevent dispatching all tasks")
	}
}

func TestMapZeroTasks(t *testing.T) {
	out, err := Map(context.Background(), 0, 0, func(i int) (int, error) {
		return 0, fmt.Errorf("must not run")
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: out=%v err=%v", out, err)
	}
}

// TestShareSplitsCPUsAcrossReservedSlots: Share is the CPUs divided by
// the reserved slots, at least 1, and NumCPU when none are reserved.
func TestShareSplitsCPUsAcrossReservedSlots(t *testing.T) {
	base := Reserved()
	cpus := DefaultWorkers()
	for _, n := range []int{1, 2, 3, cpus, 2 * cpus} {
		Reserve(n)
		if got, want := Reserved(), base+n; got != want {
			t.Fatalf("Reserve(%d): %d reserved, want %d", n, got, want)
		}
		if got, want := Share(), max(1, cpus/max(1, base+n)); got != want {
			t.Fatalf("%d reserved on %d CPUs: Share = %d, want %d", base+n, cpus, got, want)
		}
		Release(n)
	}
	if Reserved() != base {
		t.Fatalf("%d reserved after releasing everything, want %d", Reserved(), base)
	}
	if base == 0 && Share() != cpus {
		t.Fatalf("nothing reserved: Share = %d, want NumCPU %d", Share(), cpus)
	}
}
