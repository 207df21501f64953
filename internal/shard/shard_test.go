package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// pureRunner is deterministic in (spec seed, job) — the property the
// byte-identical merge invariant rests on.
func pureRunner(ctx context.Context, spec campaign.Spec, job campaign.Job) (campaign.Record, error) {
	seed := spec.Seed ^ uint64(len(job.Mfr))<<32 ^ uint64(job.Module)*2654435761
	return campaign.Record{
		Seed:    seed,
		Pattern: "checkered",
		Metrics: map[string]float64{"hc_min": float64(seed%100_000) + 512, "rows": 24},
		Series:  map[string][]float64{"hc": {float64(seed % 7), float64(seed % 13)}},
	}, nil
}

// testLeases owns the shards of the tests that call RunShard directly.
// One service for the whole package keeps every shard's tokens
// monotone, as one long-lived lease service would.
var testLeases = leasesvc.NewService(0)

func testSpec() campaign.Spec {
	return campaign.Spec{
		Kind:          campaign.KindHCFirst,
		Mfrs:          []string{"A", "B", "C"},
		ModulesPerMfr: 4,
		Seed:          99,
		Workers:       4,
		MaxRetries:    2,
		RetryBackoff:  100 * time.Microsecond,
		JobTimeout:    5 * time.Second,
	}
}

func summarize(t *testing.T, res *campaign.Result) []byte {
	t.Helper()
	b, err := campaign.Aggregate(res).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPartitionDisjointCoveringBalanced(t *testing.T) {
	spec := testSpec()
	all := campaign.Expand(spec)
	for _, n := range []int{1, 2, 3, 4, 5, 8, 12, 13, 50} {
		seen := map[string]int{}
		min, max := len(all), 0
		for _, a := range shard.Partition(n) {
			jobs := a.Jobs(spec)
			if len(jobs) < min {
				min = len(jobs)
			}
			if len(jobs) > max {
				max = len(jobs)
			}
			for _, j := range jobs {
				seen[j.Key()]++
			}
		}
		if len(seen) != len(all) {
			t.Fatalf("n=%d: partition covers %d of %d jobs", n, len(seen), len(all))
		}
		for key, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: job %s owned by %d shards", n, key, c)
			}
		}
		if max-min > 1 {
			t.Fatalf("n=%d: unbalanced partition, shard sizes range %d..%d", n, min, max)
		}
	}
}

func TestParseAssignment(t *testing.T) {
	a, err := shard.ParseAssignment("2/8")
	if err != nil || a.Index != 2 || a.Of != 8 {
		t.Fatalf("ParseAssignment(2/8) = %+v, %v", a, err)
	}
	for _, bad := range []string{"", "3", "8/8", "-1/4", "a/b", "1/0"} {
		if _, err := shard.ParseAssignment(bad); err == nil {
			t.Fatalf("ParseAssignment(%q) accepted", bad)
		}
	}
}

// TestShardedRunMergesByteIdentical is the tentpole invariant: an
// N-shard run, each shard an independent RunShard with its own
// checkpoint, merges into a summary byte-identical to a
// single-process run — for N of 2, 4 and 8 (8 > 6 jobs for one mfr
// grid exercises empty shards).
func TestShardedRunMergesByteIdentical(t *testing.T) {
	spec := testSpec()
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	for _, n := range []int{2, 4, 8, 13} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			for _, a := range shard.Partition(n) {
				if _, err := shard.RunShard(context.Background(), shard.RunConfig{
					Dir: dir, Assignment: a, Spec: spec, Runner: pureRunner, Lease: testLeases,
					BeatEvery: 10 * time.Millisecond,
				}); err != nil {
					t.Fatalf("shard %s: %v", a, err)
				}
			}
			res, rep, err := shard.MergeShards(spec, shard.CheckpointPaths(dir, n))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Complete() {
				t.Fatalf("merge incomplete, missing %v", rep.Missing)
			}
			if got := summarize(t, res); !bytes.Equal(got, want) {
				t.Fatalf("N=%d merged summary differs from single-process run:\n%s\nwant:\n%s", n, got, want)
			}
		})
	}
}

// TestShardResumeAfterPartialRun kills a shard mid-run (drain after
// two jobs), then resumes it with a fresh RunShard; the merge must
// still be byte-identical to the single-process run.
func TestShardResumeAfterPartialRun(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	const n = 2
	parts := shard.Partition(n)

	// Shard 0: drain after 2 of its 6 jobs, leaving a partial checkpoint.
	drain := make(chan struct{})
	ranJobs := 0
	slowRunner := func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
		ranJobs++
		if ranJobs == 2 {
			close(drain)
		}
		return pureRunner(ctx, s, j)
	}
	_, err = shard.RunShard(context.Background(), shard.RunConfig{
		Dir: dir, Assignment: parts[0], Spec: spec, Runner: slowRunner, Lease: testLeases,
		Drain: drain, BeatEvery: 10 * time.Millisecond,
	})
	if !errors.Is(err, campaign.ErrDrained) {
		t.Fatalf("want ErrDrained from partial shard, got %v", err)
	}

	// A successor resumes shard 0's checkpoint and finishes the slice.
	res0, err := shard.RunShard(context.Background(), shard.RunConfig{
		Dir: dir, Assignment: parts[0], Spec: spec, Runner: pureRunner, Lease: testLeases,
		BeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Skipped != 2 {
		t.Fatalf("resume should skip the 2 checkpointed jobs, skipped %d", res0.Skipped)
	}
	if _, err := shard.RunShard(context.Background(), shard.RunConfig{
		Dir: dir, Assignment: parts[1], Spec: spec, Runner: pureRunner, Lease: testLeases,
		BeatEvery: 10 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	res, rep, err := shard.MergeShards(spec, shard.CheckpointPaths(dir, n))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("merge incomplete, missing %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("kill+resume merged summary differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunShardRejectsForeignAssignment: a worker handed shard 1's
// checkpoint path layout but shard 0's assignment must refuse rather
// than run the wrong slice.
func TestRunShardRejectsForeignCheckpoint(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	parts := shard.Partition(2)
	if _, err := shard.RunShard(context.Background(), shard.RunConfig{
		Dir: dir, Assignment: parts[0], Spec: spec, Runner: pureRunner, Lease: testLeases,
	}); err != nil {
		t.Fatal(err)
	}
	// Point shard 1/2's worker at shard 0/2's checkpoint by renaming.
	src := shard.CheckpointPath(dir, parts[0])
	dst := shard.CheckpointPath(dir, parts[1])
	if err := copyFile(src, dst); err != nil {
		t.Fatal(err)
	}
	_, err := shard.RunShard(context.Background(), shard.RunConfig{
		Dir: dir, Assignment: parts[1], Spec: spec, Runner: pureRunner, Lease: testLeases,
	})
	if !errors.Is(err, campaign.ErrShardMismatch) {
		t.Fatalf("want ErrShardMismatch, got %v", err)
	}
}

func TestMergeShardsRejectsForeignCampaign(t *testing.T) {
	specA := testSpec()
	specB := testSpec()
	specB.Seed = 1234 // different identity

	dirA, dirB := t.TempDir(), t.TempDir()
	for _, a := range shard.Partition(2) {
		if _, err := shard.RunShard(context.Background(), shard.RunConfig{
			Dir: dirA, Assignment: a, Spec: specA, Runner: pureRunner, Lease: testLeases,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := shard.RunShard(context.Background(), shard.RunConfig{
			Dir: dirB, Assignment: a, Spec: specB, Runner: pureRunner, Lease: testLeases,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Smuggle one of campaign B's shard files into A's directory.
	bad := shard.CheckpointPath(dirA, shard.Partition(2)[1])
	if err := copyFile(shard.CheckpointPath(dirB, shard.Partition(2)[1]), bad); err != nil {
		t.Fatal(err)
	}
	_, _, err := shard.MergeShards(specA, shard.CheckpointPaths(dirA, 2))
	var ierr *shard.IdentityError
	if !errors.As(err, &ierr) {
		t.Fatalf("want *IdentityError, got %v", err)
	}
	if ierr.Path != bad {
		t.Fatalf("IdentityError names %s, want offending file %s", ierr.Path, bad)
	}
	if ierr.Want != specA.IdentityHash() || ierr.Got != specB.IdentityHash() {
		t.Fatalf("IdentityError hashes = got %s want %s", ierr.Got, ierr.Want)
	}
}

func TestMergeShardsRejectsWholeCampaignFile(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	// A whole-campaign (unsharded) checkpoint masquerading as shard 0.
	path := shard.CheckpointPath(dir, shard.Partition(1)[0])
	cw, err := campaign.CreateCheckpoint(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	cw.Close()
	_, _, err = shard.MergeShards(spec, []string{path})
	var ierr *shard.IdentityError
	if !errors.As(err, &ierr) {
		t.Fatalf("want *IdentityError for unsharded header, got %v", err)
	}
}

func TestMergeShardsMissingJobs(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	parts := shard.Partition(3)
	// Run only shards 0 and 2; shard 1's slice is absent. Write an
	// empty file where shard 1's checkpoint would be (a worker killed
	// pre-header) — the merge must tolerate it and report the gap.
	for _, i := range []int{0, 2} {
		if _, err := shard.RunShard(context.Background(), shard.RunConfig{
			Dir: dir, Assignment: parts[i], Spec: spec, Runner: pureRunner, Lease: testLeases,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeFile(shard.CheckpointPath(dir, parts[1]), nil); err != nil {
		t.Fatal(err)
	}
	_, rep, err := shard.MergeShards(spec, shard.CheckpointPaths(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("merge of 2/3 shards reported complete")
	}
	if want := len(parts[1].Jobs(spec)); len(rep.Missing) != want {
		t.Fatalf("Missing = %d jobs, want %d", len(rep.Missing), want)
	}
}

func TestLayoutPaths(t *testing.T) {
	a := shard.Assignment{Index: 3, Of: 8}
	dir := "/tmp/x"
	if got := shard.CheckpointPath(dir, a); got != filepath.Join(dir, "shard-0003.ckpt") {
		t.Fatalf("CheckpointPath = %s", got)
	}
	if got := shard.CheckpointPaths(dir, 2); len(got) != 2 || got[0] == got[1] {
		t.Fatalf("CheckpointPaths = %v", got)
	}
}
