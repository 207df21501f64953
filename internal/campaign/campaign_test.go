package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeRunner returns a deterministic runner whose metrics depend only
// on (spec seed, job), mirroring the keyed-seed fault model.
func fakeRunner(delayUnlock <-chan struct{}) Runner {
	return func(ctx context.Context, spec Spec, job Job) (Record, error) {
		if delayUnlock != nil {
			select {
			case <-delayUnlock:
			case <-ctx.Done():
				return Record{}, ctx.Err()
			}
		}
		seed := spec.Seed ^ uint64(len(job.Mfr)) ^ uint64(job.Module)*2654435761
		return Record{
			Seed:    seed,
			Pattern: "checkered",
			Metrics: map[string]float64{
				"hc_min": float64(seed%100_000) + 512,
				"rows":   24,
			},
			Series: map[string][]float64{"hc": {float64(seed % 7), float64(seed % 13)}},
		}, nil
	}
}

func testSpec(mfrs []string, modules int) Spec {
	return Spec{Kind: KindHCFirst, Mfrs: mfrs, ModulesPerMfr: modules, Seed: 42, Workers: 4}
}

func TestExpandDeterministicOrder(t *testing.T) {
	spec, err := testSpec([]string{"A", "B"}, 3).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	jobs := Expand(spec)
	want := []string{"hcfirst/A/0", "hcfirst/A/1", "hcfirst/A/2", "hcfirst/B/0", "hcfirst/B/1", "hcfirst/B/2"}
	if len(jobs) != len(want) {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), len(want))
	}
	for i, j := range jobs {
		if j.Key() != want[i] {
			t.Fatalf("job %d key %q, want %q", i, j.Key(), want[i])
		}
	}
}

// TestNormalizeAcceptsAnyKind: the engine does not judge kinds — an
// experiment kind normalizes in a binary that links no experiment
// package, and the kind passes through unchanged.
func TestNormalizeAcceptsAnyKind(t *testing.T) {
	for _, kind := range []string{"exp:fig5", KindBER} {
		n, err := Spec{Kind: kind}.Normalize()
		if err != nil {
			t.Fatalf("Normalize(%q): %v", kind, err)
		}
		if n.Kind != kind {
			t.Fatalf("Normalize(%q) kind = %q", kind, n.Kind)
		}
	}
}

func TestRunCompletesAllJobs(t *testing.T) {
	var cp bytes.Buffer
	spec := testSpec([]string{"A", "B", "C", "D"}, 4)
	res, err := Run(context.Background(), spec, Options{
		Runner:  fakeRunner(nil),
		Records: NewCheckpointWriter(&cp, spec),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed != 16 || res.Failed != 0 || res.Skipped != 0 {
		t.Fatalf("completed/failed/skipped = %d/%d/%d, want 16/0/0", res.Completed, res.Failed, res.Skipped)
	}
	if n := bytes.Count(cp.Bytes(), []byte{'\n'}); n != 1+16 {
		t.Fatalf("checkpoint has %d lines, want header + 16", n)
	}
	recs := checkpointRecords(t, cp.Bytes(), spec)
	if len(recs) != 16 {
		t.Fatalf("checkpoint parsed %d records, want 16", len(recs))
	}
}

func TestAggregateOrderIndependent(t *testing.T) {
	spec := testSpec([]string{"A", "B"}, 8)
	run := func(workers int) []byte {
		s := spec
		s.Workers = workers
		res, err := Run(context.Background(), s, Options{Runner: fakeRunner(nil)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Aggregate(res).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("aggregate depends on worker count:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

func TestPanickingJobIsRetriedThenReported(t *testing.T) {
	// First attempt of job B/1 panics; the retry succeeds.
	var calls atomic.Int64
	inner := fakeRunner(nil)
	runner := func(ctx context.Context, spec Spec, job Job) (Record, error) {
		if job.Key() == "hcfirst/B/1" && calls.Add(1) == 1 {
			panic("injected fault")
		}
		return inner(ctx, spec, job)
	}
	res, err := Run(context.Background(), testSpec([]string{"A", "B"}, 2), Options{Runner: runner})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rec := res.Records["hcfirst/B/1"]
	if rec.Failed() {
		t.Fatalf("retried job should succeed, got err %q", rec.Err)
	}
	if rec.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", rec.Attempts)
	}
}

func TestPersistentPanicIsReportedNotLost(t *testing.T) {
	inner := fakeRunner(nil)
	runner := func(ctx context.Context, spec Spec, job Job) (Record, error) {
		if job.Key() == "hcfirst/A/0" {
			panic("hard fault")
		}
		return inner(ctx, spec, job)
	}
	var cp bytes.Buffer
	spec := testSpec([]string{"A"}, 2)
	spec.MaxRetries = 2
	res, err := Run(context.Background(), spec, Options{Runner: runner, Records: NewCheckpointWriter(&cp, spec)})
	if err == nil || !strings.Contains(err.Error(), "1 of 2 jobs failed") {
		t.Fatalf("want failure-count error, got %v", err)
	}
	rec, ok := res.Records["hcfirst/A/0"]
	if !ok {
		t.Fatalf("failed job missing from records")
	}
	if !rec.Failed() || !strings.Contains(rec.Err, "hard fault") {
		t.Fatalf("failed record = %+v", rec)
	}
	if rec.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", rec.Attempts)
	}
	// The failed record is checkpointed too, so it is never lost.
	recs := checkpointRecords(t, cp.Bytes(), spec)
	if got := recs["hcfirst/A/0"]; !got.Failed() {
		t.Fatalf("checkpoint should carry the failed record, got %+v", got)
	}
}

func TestInterruptedResumeBitIdenticalAggregate(t *testing.T) {
	spec := testSpec([]string{"A", "B", "C", "D"}, 4) // 16 modules

	// Reference: uninterrupted run.
	ref, err := Run(context.Background(), spec, Options{Runner: fakeRunner(nil)})
	if err != nil {
		t.Fatal(err)
	}
	refSum, err := Aggregate(ref).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after 5 completions.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cp bytes.Buffer
	var once sync.Once
	var completions atomic.Int64
	res, err := Run(ctx, spec, Options{
		Runner:  fakeRunner(nil),
		Records: NewCheckpointWriter(&cp, spec),
		Progress: func(done, total int, rec Record) {
			if !rec.Failed() && completions.Add(1) >= 5 {
				once.Do(cancel)
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run should report cancellation, got %v", err)
	}
	if res.Completed >= 16 {
		t.Fatalf("run was not actually interrupted (completed %d)", res.Completed)
	}

	// Resume from the streamed checkpoint.
	done := checkpointRecords(t, cp.Bytes(), spec)
	resumed, err := Run(context.Background(), spec, Options{Runner: fakeRunner(nil), Done: done})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed.Skipped == 0 {
		t.Fatalf("resume should skip checkpointed jobs")
	}
	if resumed.Skipped+resumed.Completed != 16 {
		t.Fatalf("skipped %d + completed %d != 16", resumed.Skipped, resumed.Completed)
	}
	gotSum, err := Aggregate(resumed).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refSum, gotSum) {
		t.Fatalf("interrupted+resumed aggregate differs from uninterrupted run:\nref: %s\ngot: %s", refSum, gotSum)
	}
}

func TestReadCheckpointToleratesTornTrailingLine(t *testing.T) {
	var cp bytes.Buffer
	recs := []Record{
		{Key: "hcfirst/A/0", Kind: KindHCFirst, Mfr: "A", Metrics: map[string]float64{"x": 1}},
		{Key: "hcfirst/A/1", Kind: KindHCFirst, Mfr: "A", Metrics: map[string]float64{"x": 2}},
	}
	for _, r := range recs {
		writeV1Line(t, &cp, r)
	}
	// Simulate a kill mid-write: a torn final line.
	cp.WriteString(`{"key":"hcfirst/A/2","metrics":{"x":`)
	rep, err := ReadCheckpointReport(bytes.NewReader(cp.Bytes()), ResumeOptions{})
	if err != nil {
		t.Fatalf("torn trailing line should be tolerated: %v", err)
	}
	if len(rep.Records) != 2 || !rep.TornFinal || rep.CorruptRecords != 0 {
		t.Fatalf("parsed %d records (torn %v, corrupt %d), want 2, torn, 0 corrupt",
			len(rep.Records), rep.TornFinal, rep.CorruptRecords)
	}
}

func TestReadCheckpointSuccessWinsOverFailure(t *testing.T) {
	var cp bytes.Buffer
	ok := Record{Key: "hcfirst/A/0", Metrics: map[string]float64{"x": 1}}
	bad := Record{Key: "hcfirst/A/0", Err: "boom"}
	for _, r := range []Record{bad, ok, bad} {
		writeV1Line(t, &cp, r)
	}
	rep, err := ReadCheckpointReport(bytes.NewReader(cp.Bytes()), ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Records["hcfirst/A/0"]; got.Failed() {
		t.Fatalf("successful record should win, got %+v", got)
	}
}

func TestFailedRecordsAreRerunOnResume(t *testing.T) {
	done := map[string]Record{
		"hcfirst/A/0": {Key: "hcfirst/A/0", Err: "previous crash"},
		"hcfirst/A/1": {Key: "hcfirst/A/1", Metrics: map[string]float64{"x": 1}},
	}
	var ran []string
	var mu sync.Mutex
	inner := fakeRunner(nil)
	runner := func(ctx context.Context, spec Spec, job Job) (Record, error) {
		mu.Lock()
		ran = append(ran, job.Key())
		mu.Unlock()
		return inner(ctx, spec, job)
	}
	spec := testSpec([]string{"A"}, 2)
	spec.Workers = 1
	res, err := Run(context.Background(), spec, Options{Runner: runner, Done: done})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 || res.Completed != 1 {
		t.Fatalf("skipped/completed = %d/%d, want 1/1", res.Skipped, res.Completed)
	}
	if len(ran) != 1 || ran[0] != "hcfirst/A/0" {
		t.Fatalf("resume should re-run only the failed job, ran %v", ran)
	}
}

func TestRunRequiresRunner(t *testing.T) {
	_, err := Run(context.Background(), testSpec([]string{"A"}, 1), Options{})
	if err == nil {
		t.Fatal("want error for missing runner")
	}
}

func TestProgressReportsMonotonicCounts(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	_, err := Run(context.Background(), testSpec([]string{"A", "B"}, 2), Options{
		Runner: fakeRunner(nil),
		Progress: func(done, total int, rec Record) {
			mu.Lock()
			seen = append(seen, done)
			mu.Unlock()
			if total != 4 {
				panic(fmt.Sprintf("total = %d, want 4", total))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("progress called %d times, want 4", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress counts %v not monotonic", seen)
		}
	}
}
