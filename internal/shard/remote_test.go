package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// partitionableAPI wraps a lease API with a worker-side partition
// switch: while down, every call fails with a transport-style error —
// the service is healthy, this worker just cannot reach it.
type partitionableAPI struct {
	inner leasesvc.API
	mu    sync.Mutex
	down  bool
}

func (f *partitionableAPI) setDown(d bool) {
	f.mu.Lock()
	f.down = d
	f.mu.Unlock()
}

func (f *partitionableAPI) offline() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return fmt.Errorf("dial tcp: connection timed out (injected partition)")
	}
	return nil
}

func (f *partitionableAPI) Acquire(ctx context.Context, key leasesvc.Key, owner string, ttl time.Duration) (leasesvc.Grant, error) {
	if err := f.offline(); err != nil {
		return leasesvc.Grant{}, err
	}
	return f.inner.Acquire(ctx, key, owner, ttl)
}

func (f *partitionableAPI) Beat(ctx context.Context, key leasesvc.Key, token uint64, b leasesvc.Beat) error {
	if err := f.offline(); err != nil {
		return err
	}
	return f.inner.Beat(ctx, key, token, b)
}

func (f *partitionableAPI) Release(ctx context.Context, key leasesvc.Key, token uint64) error {
	if err := f.offline(); err != nil {
		return err
	}
	return f.inner.Release(ctx, key, token)
}

func (f *partitionableAPI) View(ctx context.Context, key leasesvc.Key) (leasesvc.View, bool, error) {
	if err := f.offline(); err != nil {
		return leasesvc.View{}, false, err
	}
	return f.inner.View(ctx, key)
}

// Remote-lease happy path: a coordinator supervising workers that own
// their shards through an explicitly handed lease service merges
// byte-identical to a single-process run, every record is fenced with
// token 1, and nothing is duplicated.
func TestRemoteLeaseHappyPath(t *testing.T) {
	spec := testSpec()
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	svc := leasesvc.NewService(time.Second)
	dir := t.TempDir()
	spawn := func(ctx context.Context, a shard.Assignment, gen int) (shard.WorkerHandle, error) {
		wctx, cancel := context.WithCancel(ctx)
		w := &procWorker{cancel: cancel, drain: make(chan struct{}), done: make(chan struct{})}
		go func() {
			defer close(w.done)
			defer cancel()
			_, w.err = shard.RunShard(wctx, shard.RunConfig{
				Dir: dir, Assignment: a, Spec: spec, Runner: pureRunner,
				Drain: w.drain, BeatEvery: 10 * time.Millisecond,
				Lease: svc, LeaseTTL: time.Second,
			})
		}()
		return w, nil
	}
	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 3, Spawn: spawn,
		Leases: svc, LeaseTTL: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("remote-lease summary differs:\n%s\nwant:\n%s", got, want)
	}
	for _, a := range shard.Partition(3) {
		token, err := shard.ReadFence(shard.FencePath(dir, a))
		if err != nil {
			t.Fatal(err)
		}
		if token != 1 {
			t.Fatalf("shard %s fence = %d, want 1 (single clean generation)", a, token)
		}
		ckptRep, err := campaign.LoadCheckpointReport(shard.CheckpointPath(dir, a), campaign.ResumeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ckptRep.DuplicateRecords != 0 {
			t.Fatalf("shard %s has %d duplicate records, want 0", a, ckptRep.DuplicateRecords)
		}
		for key, rec := range ckptRep.Records {
			if rec.Fence != 1 {
				t.Fatalf("shard %s record %s fence = %d, want 1", a, key, rec.Fence)
			}
		}
	}
}

// The fencing proof: a worker partitioned away mid-job is superseded
// by a successor holding a larger token; when the zombie's in-flight
// job finally completes, its append is rejected at the fence — the
// merged checkpoint carries no duplicate and no stale record.
func TestRemoteZombieFenced(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	const ttl = 200 * time.Millisecond
	svc := leasesvc.NewService(ttl)
	dir := t.TempDir()
	parts := shard.Partition(2)

	// Shard 1 runs cleanly up front, keeping the drill focused on
	// shard 0.
	if _, err := shard.RunShard(context.Background(), shard.RunConfig{
		Dir: dir, Assignment: parts[1], Spec: spec, Runner: pureRunner, Lease: svc,
	}); err != nil {
		t.Fatal(err)
	}

	// Zombie: completes its first job, then holds the second in
	// flight until the gate opens.
	holding := make(chan struct{})
	gate := make(chan struct{})
	n := 0
	zombieRunner := func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
		n++
		if n == 2 {
			close(holding)
			<-gate
		}
		return pureRunner(ctx, s, j)
	}
	zombieAPI := &partitionableAPI{inner: svc}
	zombieDone := make(chan error, 1)
	go func() {
		_, err := shard.RunShard(context.Background(), shard.RunConfig{
			Dir: dir, Assignment: parts[0], Spec: spec, Runner: zombieRunner,
			BeatEvery: 10 * time.Millisecond,
			Lease:     zombieAPI, LeaseTTL: ttl,
		})
		zombieDone <- err
	}()

	<-holding
	// Partition the zombie: its beats stop reaching the service, the
	// service ages its lease out, and the successor may take over.
	zombieAPI.setDown(true)

	if _, err := shard.RunShard(context.Background(), shard.RunConfig{
		Dir: dir, Assignment: parts[0], Spec: spec, Runner: pureRunner,
		BeatEvery: 10 * time.Millisecond,
		Lease:     svc, LeaseTTL: ttl,
		Log: t.Logf,
	}); err != nil {
		t.Fatalf("successor: %v", err)
	}

	// Successor done: fence is at 2. Let the zombie's held job finish
	// — its append must be refused.
	close(gate)
	zombieErr := <-zombieDone
	if !errors.Is(zombieErr, shard.ErrFenced) {
		t.Fatalf("zombie exit = %v, want ErrFenced", zombieErr)
	}

	token, err := shard.ReadFence(shard.FencePath(dir, parts[0]))
	if err != nil {
		t.Fatal(err)
	}
	if token != 2 {
		t.Fatalf("fence = %d, want 2 (successor's token)", token)
	}
	rep, err := campaign.LoadCheckpointReport(shard.CheckpointPath(dir, parts[0]), campaign.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicateRecords != 0 {
		t.Fatalf("checkpoint has %d duplicate records, want 0 (the fence must reject the zombie's late append)", rep.DuplicateRecords)
	}
	// The job the zombie held in flight must carry the successor's
	// fence — the zombie's version never landed.
	jobs := parts[0].Jobs(spec)
	heldKey := jobs[1].Key()
	if rec, ok := rep.Records[heldKey]; !ok || rec.Fence != 2 {
		t.Fatalf("held job %s: record %+v, want fence 2", heldKey, rep.Records[heldKey])
	}
	res, mrep, err := shard.MergeShards(spec, shard.CheckpointPaths(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !mrep.Complete() {
		t.Fatalf("merge incomplete: %v", mrep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("post-zombie summary differs:\n%s\nwant:\n%s", got, want)
	}
}

// Graceful degradation: a worker that loses the lease service
// entirely finishes its in-flight job, flushes the checkpoint, and
// self-fences into a drain — it does not keep publishing unsupervised
// and it does not lose the work it already did.
func TestRemoteSelfFenceOnPartition(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1

	const ttl = 150 * time.Millisecond
	svc := leasesvc.NewService(ttl)
	api := &partitionableAPI{inner: svc}
	dir := t.TempDir()
	parts := shard.Partition(2)

	holding := make(chan struct{})
	gate := make(chan struct{})
	n := 0
	runner := func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
		n++
		if n == 2 {
			close(holding)
			<-gate
		}
		return pureRunner(ctx, s, j)
	}
	done := make(chan error, 1)
	var logMu sync.Mutex
	var logs []string
	go func() {
		_, err := shard.RunShard(context.Background(), shard.RunConfig{
			Dir: dir, Assignment: parts[0], Spec: spec, Runner: runner,
			BeatEvery: 10 * time.Millisecond,
			Lease:     api, LeaseTTL: ttl,
			Log: func(format string, args ...any) {
				logMu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				logMu.Unlock()
			},
		})
		done <- err
	}()

	<-holding
	api.setDown(true)
	// Give the heartbeat loop > TTL of continuous failure to trip the
	// self-fence, then let the in-flight job finish.
	time.Sleep(3 * ttl)
	close(gate)

	err := <-done
	if !errors.Is(err, campaign.ErrDrained) {
		t.Fatalf("worker exit = %v, want ErrDrained (graceful self-fence)", err)
	}
	if !strings.Contains(err.Error(), "self-fenced") {
		t.Fatalf("worker exit = %v, want a self-fenced explanation", err)
	}
	rep, err := campaign.LoadCheckpointReport(shard.CheckpointPath(dir, parts[0]), campaign.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Both the pre-partition job and the in-flight one are flushed;
	// nothing after the self-fence was dispatched.
	if len(rep.Records) != 2 {
		t.Fatalf("checkpoint has %d records, want 2 (one finished + one in-flight at partition)", len(rep.Records))
	}
	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(joined, "self-fencing") {
		t.Fatalf("logs never mention self-fencing:\n%s", joined)
	}
}

// Satellite: the fence file refuses to be lowered and refuses to be
// trusted when damaged.
func TestFenceFileSemantics(t *testing.T) {
	dir := t.TempDir()
	path := shard.FencePath(dir, shard.Partition(2)[0])
	if token, err := shard.ReadFence(path); err != nil || token != 0 {
		t.Fatalf("missing fence reads (%d, %v), want (0, nil)", token, err)
	}
	if err := shard.RaiseFence(path, 3); err != nil {
		t.Fatal(err)
	}
	if err := shard.RaiseFence(path, 3); err != nil {
		t.Fatalf("re-raising to the same token should be a no-op, got %v", err)
	}
	if err := shard.RaiseFence(path, 2); !errors.Is(err, shard.ErrFenced) {
		t.Fatalf("lowering the fence = %v, want ErrFenced", err)
	}
	if token, _ := shard.ReadFence(path); token != 3 {
		t.Fatalf("fence = %d, want 3", token)
	}
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.ReadFence(path); err == nil {
		t.Fatal("damaged fence file must read as an error, not as token 0")
	}
}

// discardWriter accepts every record; it stands in for the checkpoint
// behind a FencedWriter whose fence is the only thing under test.
type discardWriter struct{}

func (discardWriter) WriteRecord(campaign.Record) error { return nil }

// TestCoordinateSeedsTokenFloorFromFence: a shard directory whose
// fence files already sit at token 5 — left by an earlier coordinator
// and its lease service — is taken over by a fresh service. Coordinate
// must seed each lease's token floor from the fence on disk, so the
// first acquisition mints token 6: the run converges byte-identical,
// and a lingering writer still holding token 5 is fenced on its next
// append. Without the floor the fresh service mints tokens 1..4, all
// below the fence, and every attempt is refused until MaxRespawns.
func TestCoordinateSeedsTokenFloorFromFence(t *testing.T) {
	spec := testSpec()
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	parts := shard.Partition(3)
	for _, a := range parts {
		if err := shard.RaiseFence(shard.FencePath(dir, a), 5); err != nil {
			t.Fatal(err)
		}
	}
	orphan := shard.NewFencedWriter(discardWriter{}, shard.FencePath(dir, parts[0]), 5)
	if err := orphan.WriteRecord(campaign.Record{Key: "A/0"}); err != nil {
		t.Fatalf("token-5 writer refused before the takeover: %v", err)
	}

	svc := leasesvc.NewService(time.Second)
	spawn := func(ctx context.Context, a shard.Assignment, gen int) (shard.WorkerHandle, error) {
		wctx, cancel := context.WithCancel(ctx)
		w := &procWorker{cancel: cancel, drain: make(chan struct{}), done: make(chan struct{})}
		go func() {
			defer close(w.done)
			defer cancel()
			_, w.err = shard.RunShard(wctx, shard.RunConfig{
				Dir: dir, Assignment: a, Spec: spec, Runner: pureRunner,
				Drain: w.drain, BeatEvery: 10 * time.Millisecond,
				Lease: svc, LeaseTTL: time.Second,
			})
		}()
		return w, nil
	}
	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: len(parts), Spawn: spawn,
		Leases: svc, MaxRespawns: 1,
	})
	if err != nil {
		t.Fatalf("coordinate over a fenced directory: %v", err)
	}
	if !rep.Complete() {
		t.Fatalf("incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("summary differs:\n%s\nwant:\n%s", got, want)
	}
	for _, a := range parts {
		if token, err := shard.ReadFence(shard.FencePath(dir, a)); err != nil || token != 6 {
			t.Fatalf("shard %s fence = %d (%v), want 6", a, token, err)
		}
	}
	if err := orphan.WriteRecord(campaign.Record{Key: "A/0"}); !errors.Is(err, shard.ErrFenced) {
		t.Fatalf("token-5 writer after the takeover = %v, want ErrFenced", err)
	}
}

// Satellite 1: staleness is judged by Seq monotonicity on the
// observer's clock — a clock-skewed host whose lease looks ancient on
// its service's clock is NOT stalled while its Seq advances, and a
// frozen Seq is stalled once the observer has watched it frozen for
// longer than ttl, whether or not the service still calls it held.
func TestStallTrackerSeqMonotonicity(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := &shard.StallTracker{Now: func() time.Time { return now }}
	ttl := time.Second
	view := func(seq uint64, held bool, since time.Duration) leasesvc.View {
		return leasesvc.View{Held: held, Token: 1, Seq: seq, SinceAdvance: since}
	}

	// Advancing Seq with an absurd service-side age (skewed host):
	// never stalled.
	for seq := uint64(1); seq <= 4; seq++ {
		now = now.Add(900 * time.Millisecond)
		if tr.Stalled(0, view(seq, true, 48*time.Hour), ttl) {
			t.Fatalf("seq %d advancing but declared stalled (the service clock must not matter)", seq)
		}
	}
	// Frozen Seq that the service reports fresh: stalled once the
	// observer has watched it frozen for > ttl.
	if tr.Stalled(0, view(4, true, 0), ttl) {
		t.Fatal("frozen seq declared stalled before ttl elapsed")
	}
	now = now.Add(ttl + time.Millisecond)
	if !tr.Stalled(0, view(4, true, 0), ttl) {
		t.Fatal("seq frozen for > ttl not declared stalled")
	}
	// A lease the service has expired is still a silent holder.
	if !tr.Stalled(0, view(4, false, 2*ttl), ttl) {
		t.Fatal("expired lease with a frozen seq not declared stalled")
	}
	// A fresh generation after Forget starts a new clock.
	tr.Forget(0)
	if tr.Stalled(0, view(4, true, 0), ttl) {
		t.Fatal("stalled immediately after Forget")
	}
	// No TTL, no stall judgment.
	if tr.Stalled(1, view(1, true, time.Hour), 0) {
		t.Fatal("stall declared with ttl 0")
	}
}

// A reassigned shard's successor acquires a higher fencing token and
// its heartbeat Seq restarts at zero — below the dead predecessor's
// high-water Seq. The tracker must treat the token change as a new
// holder with a fresh stall clock, not as a frozen heartbeat, or it
// would kill every healthy successor ttl after the handover.
func TestStallTrackerTokenHandover(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := &shard.StallTracker{Now: func() time.Time { return now }}
	ttl := time.Second
	view := func(token, seq uint64) leasesvc.View {
		return leasesvc.View{Held: true, Token: token, Seq: seq}
	}

	// Predecessor (token 1) beats up to seq 9, then dies frozen.
	tr.Stalled(0, view(1, 9), ttl)
	now = now.Add(ttl + time.Millisecond)
	if !tr.Stalled(0, view(1, 9), ttl) {
		t.Fatal("frozen predecessor not declared stalled")
	}
	// Successor acquires token 2; its seq 1 < 9 must not read as
	// frozen.
	if tr.Stalled(0, view(2, 1), ttl) {
		t.Fatal("successor with fresh token declared stalled on predecessor's seq")
	}
	// And its own clock only trips after its own ttl of frozen seq.
	now = now.Add(ttl / 2)
	if tr.Stalled(0, view(2, 1), ttl) {
		t.Fatal("successor stalled before its own ttl elapsed")
	}
	now = now.Add(ttl)
	if !tr.Stalled(0, view(2, 1), ttl) {
		t.Fatal("successor genuinely frozen for > ttl not declared stalled")
	}
}

// Satellite: a dead shard whose checkpoint has a corrupt interior
// record is reassigned — the corrupt line is quarantined to the
// .corrupt sidecar, exactly the lost jobs re-run, and the merge is
// still byte-identical.
func TestCoordinateReassignsCorruptInteriorShard(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	parts := shard.Partition(2)
	svc := leasesvc.NewService(0)
	for _, a := range parts {
		if _, err := shard.RunShard(context.Background(), shard.RunConfig{
			Dir: dir, Assignment: a, Spec: spec, Runner: pureRunner, Lease: svc,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Damage one interior record of shard 0 (the "worker died, disk
	// rotted a line" case): line 0 is the header, the last line must
	// stay intact (torn-final has its own path), so hit the middle.
	ckpt := shard.CheckpointPath(dir, parts[0])
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("checkpoint too short to corrupt an interior line: %d lines", len(lines))
	}
	victim := len(lines) / 2
	mid := len(lines[victim]) / 2
	lines[victim][mid] ^= 0x20
	if err := os.WriteFile(ckpt, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	rerun := map[string]int{}
	countingRunner := func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
		mu.Lock()
		rerun[j.Key()]++
		mu.Unlock()
		return pureRunner(ctx, s, j)
	}
	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2,
		Spawn: inProcessSpawn(dir, spec, func(shard.Assignment, int) campaign.Runner { return countingRunner }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("merge incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("post-corruption summary differs:\n%s\nwant:\n%s", got, want)
	}
	// Exactly one job was lost to the corrupt line, and exactly that
	// one was re-run.
	mu.Lock()
	defer mu.Unlock()
	if len(rerun) != 1 {
		t.Fatalf("re-ran %d job(s) %v, want exactly the 1 lost to corruption", len(rerun), rerun)
	}
	// The quarantine sidecar names the damage.
	sidecar, err := os.ReadFile(ckpt + ".corrupt")
	if err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if !bytes.Contains(sidecar, []byte("#rhckpt-quarantine")) {
		t.Fatalf("sidecar lacks the quarantine header:\n%s", sidecar)
	}
}
