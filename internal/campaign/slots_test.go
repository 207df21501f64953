package campaign

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rowhammer/internal/pool"
)

// waitFor polls cond until it holds; the slot tests check counts, not
// timing, so a generous bound only catches a hang.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineWorkerSlotsAcrossConcurrentRuns: every Run reserves one
// process-wide slot per worker it starts — min(Workers, jobs to run),
// adopted jobs excluded — so a runner's pool.Share sees the workers of
// every engine in the process, and each slot is released as its
// worker exits.
func TestEngineWorkerSlotsAcrossConcurrentRuns(t *testing.T) {
	base := pool.Reserved()
	var mu sync.Mutex
	started := map[string]int{}
	gates := map[string]chan struct{}{"A": make(chan struct{}), "B": make(chan struct{})}
	var shares []int
	gated := func(ctx context.Context, spec Spec, job Job) (Record, error) {
		mu.Lock()
		started[job.Mfr]++
		shares = append(shares, pool.Share())
		mu.Unlock()
		<-gates[job.Mfr]
		return Record{Metrics: map[string]float64{"x": 1}}, nil
	}
	inFlight := func(mfr string) int {
		mu.Lock()
		defer mu.Unlock()
		return started[mfr]
	}

	// Engine A: 3 workers over 6 jobs. Engine B: 4 workers, but 3 of
	// its 4 jobs are adopted from a resume, so it starts 1.
	specA := testSpec([]string{"A"}, 6)
	specA.Workers = 3
	specB := testSpec([]string{"B"}, 4)
	resumed := map[string]Record{}
	for _, j := range Expand(specB)[1:] {
		resumed[j.Key()] = Record{Key: j.Key(), Kind: j.Kind, Mfr: j.Mfr, Module: j.Module, Attempts: 1}
	}
	errs := make(chan error, 2)
	go func() { _, err := Run(context.Background(), specA, Options{Runner: gated}); errs <- err }()
	go func() { _, err := Run(context.Background(), specB, Options{Runner: gated, Done: resumed}); errs <- err }()

	waitFor(t, "3 jobs of A and 1 of B in flight", func() bool { return inFlight("A") == 3 && inFlight("B") == 1 })
	if got := pool.Reserved() - base; got != 4 {
		t.Fatalf("two engines in flight hold %d slots, want 3 + 1", got)
	}
	close(gates["B"])
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := pool.Reserved() - base; got != 3 {
		t.Fatalf("after B returned: %d slots held, want A's 3", got)
	}
	close(gates["A"])
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := pool.Reserved(); got != base {
		t.Fatalf("after both returned: %d slots held, want %d", got, base)
	}
	if base == 0 {
		for _, s := range shares[:4] {
			if want := max(1, pool.DefaultWorkers()/4); s > pool.DefaultWorkers() || s < want {
				t.Fatalf("a runner saw share %d with 4 slots held on %d CPUs", s, pool.DefaultWorkers())
			}
		}
	}
}

// TestEngineWorkerSlotsReleasedOnDrainAndPanic: a run that drains
// mid-way, and a run whose runner panics on some jobs, give back every
// slot they reserved by the time Run returns.
func TestEngineWorkerSlotsReleasedOnDrainAndPanic(t *testing.T) {
	base := pool.Reserved()

	drain := make(chan struct{})
	var once sync.Once
	spec := testSpec([]string{"A", "B"}, 4)
	spec.Workers = 2
	_, err := Run(context.Background(), spec, Options{
		Drain: drain,
		Runner: func(ctx context.Context, spec Spec, job Job) (Record, error) {
			// Its own worker's slot is held; the other worker's is
			// released once the drain stops it.
			if got := pool.Reserved() - base; got < 1 || got > 2 {
				t.Errorf("job %s ran with %d slots held, want 1 or 2", job.Key(), got)
			}
			once.Do(func() { close(drain) })
			return Record{Metrics: map[string]float64{"x": 1}}, nil
		},
	})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("drained run: err = %v, want ErrDrained", err)
	}
	if got := pool.Reserved(); got != base {
		t.Fatalf("after a drained run: %d slots held, want %d", got, base)
	}

	spec.MaxRetries = 0
	res, err := Run(context.Background(), spec, Options{
		Runner: func(ctx context.Context, spec Spec, job Job) (Record, error) {
			if job.Module%2 == 1 {
				panic("injected")
			}
			return Record{Metrics: map[string]float64{"x": 1}}, nil
		},
	})
	if err == nil || res.Failed != 4 {
		t.Fatalf("panicking run: err = %v, failed = %d; want 4 failed jobs", err, res.Failed)
	}
	if got := pool.Reserved(); got != base {
		t.Fatalf("after a panicking run: %d slots held, want %d", got, base)
	}
}
