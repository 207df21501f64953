package campaign

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNormalizeWatchdogRequiresJobTimeout(t *testing.T) {
	s := testSpec([]string{"A"}, 1)
	s.WatchdogFactor = 3
	if _, err := s.Normalize(); err == nil {
		t.Fatal("WatchdogFactor without JobTimeout must be rejected")
	}
	s.JobTimeout = time.Second
	if _, err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	s.WatchdogFactor = -1
	s.JobTimeout = 0
	n, err := s.Normalize()
	if err != nil || n.WatchdogFactor != 0 {
		t.Fatalf("negative factor should normalize to 0, got %d, %v", n.WatchdogFactor, err)
	}
}

func TestWatchdogAbandonsWedgedRunner(t *testing.T) {
	// Job A/0 wedges: it ignores its context entirely and blocks until
	// the test ends. The watchdog must free the worker, requeue
	// through the bounded retry path, and report a stalled record —
	// without the rest of the fleet losing coverage.
	release := make(chan struct{})
	defer close(release)
	inner := fakeRunner(nil)
	runner := func(ctx context.Context, spec Spec, job Job) (Record, error) {
		if job.Key() == "hcfirst/A/0" {
			<-release // wedged: ignores its context
			return Record{}, errors.New("released")
		}
		return inner(ctx, spec, job)
	}
	spec := testSpec([]string{"A"}, 3)
	spec.Workers = 2
	spec.MaxRetries = 1
	spec.JobTimeout = 20 * time.Millisecond
	spec.WatchdogFactor = 2

	start := time.Now()
	res, err := Run(context.Background(), spec, Options{Runner: runner})
	if err == nil || !strings.Contains(err.Error(), "1 of 3 jobs failed") {
		t.Fatalf("want single-job failure, got %v", err)
	}
	rec := res.Records["hcfirst/A/0"]
	if !rec.Failed() || !strings.Contains(rec.Err, "watchdog") {
		t.Fatalf("stalled record = %+v, want watchdog abandonment", rec)
	}
	if rec.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (initial + 1 bounded requeue)", rec.Attempts)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d, want 2 healthy jobs", res.Completed)
	}
	// Sanity: the run finished in bounded time — roughly
	// 2 attempts × 2 windows × (JobTimeout×factor) — not forever.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v, fleet was effectively stalled", elapsed)
	}
}

func TestDrainStopsDispatchAndReturnsErrDrained(t *testing.T) {
	// One worker, four jobs. Drain fires while job 1 is running: jobs
	// 2-4 must never dispatch, job 1 must complete (not be cancelled)
	// and be checkpointed, and Run must return ErrDrained.
	started := make(chan struct{})
	var startOnce atomic.Bool
	drain := make(chan struct{})
	go func() {
		<-started
		close(drain)
	}()
	inner := fakeRunner(nil)
	runner := func(ctx context.Context, spec Spec, job Job) (Record, error) {
		if startOnce.CompareAndSwap(false, true) {
			close(started)
		}
		time.Sleep(50 * time.Millisecond) // drain fires mid-job
		if ctx.Err() != nil {
			return Record{}, ctx.Err() // drain must NOT cancel in-flight work
		}
		return inner(ctx, spec, job)
	}
	spec := testSpec([]string{"A"}, 4)
	spec.Workers = 1

	var cp bytes.Buffer
	cw := NewCheckpointWriter(&cp, spec)
	res, err := Run(context.Background(), spec, Options{Runner: runner, Records: cw, Drain: drain})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	if res.Completed != 1 || res.Failed != 0 {
		t.Fatalf("completed/failed = %d/%d, want 1/0 (in-flight job finishes cleanly)", res.Completed, res.Failed)
	}
	// The drained checkpoint resumes to a bit-identical summary.
	rep, err := ReadCheckpointReport(bytes.NewReader(cp.Bytes()), ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 {
		t.Fatalf("checkpoint has %d records, want the 1 drained job", len(rep.Records))
	}
	resumed, err := Run(context.Background(), spec, Options{Runner: fakeRunner(nil), Done: rep.Records})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Skipped != 1 || resumed.Completed != 3 {
		t.Fatalf("resume skipped/completed = %d/%d, want 1/3", resumed.Skipped, resumed.Completed)
	}
	ref, err := Run(context.Background(), spec, Options{Runner: fakeRunner(nil)})
	if err != nil {
		t.Fatal(err)
	}
	refSum, _ := Aggregate(ref).MarshalIndent()
	gotSum, _ := Aggregate(resumed).MarshalIndent()
	if !bytes.Equal(refSum, gotSum) {
		t.Fatalf("drain+resume summary differs from uninterrupted run:\nref: %s\ngot: %s", refSum, gotSum)
	}
}

func TestDrainNeverFiringIsHarmless(t *testing.T) {
	drain := make(chan struct{})
	defer close(drain)
	res, err := Run(context.Background(), testSpec([]string{"A"}, 2), Options{Runner: fakeRunner(nil), Drain: drain})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d, want 2", res.Completed)
	}
}

// TestWatchdogLateReturnDoesNotCorruptCheckpoint: an abandoned
// attempt's goroutine eventually returns — long after the watchdog
// gave up and the bounded retry already recorded the job. The late
// result must be swallowed, never checkpointed: the checkpoint holds
// exactly one clean record for the job, and it is the retry's, not
// the zombie's (latest-wins precedence is for crash/resume rework,
// not a back door for abandoned attempts).
func TestWatchdogLateReturnDoesNotCorruptCheckpoint(t *testing.T) {
	spec := testSpec([]string{"A"}, 1)
	spec.Workers = 1
	spec.MaxRetries = 1
	spec.JobTimeout = 10 * time.Millisecond
	spec.WatchdogFactor = 2
	nspec, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int32
	release := make(chan struct{})
	lateReturned := make(chan struct{})
	runner := func(ctx context.Context, spec Spec, job Job) (Record, error) {
		if calls.Add(1) == 1 {
			// Wedged: ignores its context. The watchdog abandons this
			// attempt; the goroutine lives on until the test releases it.
			<-release
			defer close(lateReturned)
			return Record{Pattern: "zombie", Metrics: map[string]float64{"hc_min": 1}}, nil
		}
		return Record{Pattern: "retry", Metrics: map[string]float64{"hc_min": 2}}, nil
	}

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	cw, err := CreateCheckpoint(path, nspec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), nspec, Options{Runner: runner, Records: cw})
	if err != nil {
		t.Fatalf("retry should have rescued the job: %v", err)
	}
	if res.Retried != 1 || res.Completed != 1 {
		t.Fatalf("result = %+v, want 1 retried, 1 completed", res)
	}

	// Now let the zombie return its stale success and give any buggy
	// write path a moment to land before sealing the checkpoint.
	close(release)
	<-lateReturned
	time.Sleep(20 * time.Millisecond)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := LoadCheckpointReport(path, ResumeOptions{ExpectSpec: &nspec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicateRecords != 0 || rep.CorruptRecords != 0 || rep.TornFinal {
		t.Fatalf("checkpoint not clean: %d duplicate(s), %d corrupt, torn=%v",
			rep.DuplicateRecords, rep.CorruptRecords, rep.TornFinal)
	}
	if len(rep.Records) != 1 {
		t.Fatalf("checkpoint has %d records, want exactly 1", len(rep.Records))
	}
	rec, ok := rep.Records["hcfirst/A/0"]
	if !ok {
		t.Fatalf("job record missing; have %v", rep.Records)
	}
	if rec.Failed() || rec.Attempts != 2 || rec.Pattern != "retry" {
		t.Fatalf("final record = %+v, want the retry's success (attempts=2)", rec)
	}
}
