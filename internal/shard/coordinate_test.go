package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/durable"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// procWorker runs one shard in-process — the same WorkerHandle shape
// rhserved uses to fan a campaign out under its own roof.
type procWorker struct {
	cancel    context.CancelFunc
	drainOnce sync.Once
	drain     chan struct{}
	done      chan struct{}
	err       error
}

func (w *procWorker) Wait() error { <-w.done; return w.err }
func (w *procWorker) Kill()       { w.cancel() }
func (w *procWorker) Drain()      { w.drainOnce.Do(func() { close(w.drain) }) }

// inProcessSpawn builds a SpawnFunc running RunShard in a goroutine.
// pick lets a test swap the runner per (assignment, generation).
func inProcessSpawn(dir string, spec campaign.Spec, pick func(a shard.Assignment, gen int) campaign.Runner) shard.SpawnFunc {
	return func(ctx context.Context, a shard.Assignment, gen int) (shard.WorkerHandle, error) {
		wctx, cancel := context.WithCancel(ctx)
		w := &procWorker{cancel: cancel, drain: make(chan struct{}), done: make(chan struct{})}
		go func() {
			defer close(w.done)
			defer cancel()
			_, w.err = shard.RunShard(wctx, shard.RunConfig{
				Dir: dir, Assignment: a, Spec: spec, Runner: pick(a, gen),
				Drain: w.drain, BeatEvery: 10 * time.Millisecond,
			})
		}()
		return w, nil
	}
}

func TestCoordinateHappyPath(t *testing.T) {
	spec := testSpec()
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 4,
		Spawn: inProcessSpawn(dir, spec, func(shard.Assignment, int) campaign.Runner { return pureRunner }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("coordinated summary differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestCoordinateReassignsDeadShard: shard 1's first worker dies after
// one job; the coordinator must reassign its remaining jobs to a
// fresh worker and still merge byte-identical.
func TestCoordinateReassignsDeadShard(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	var logMu sync.Mutex
	var logs []string
	var respawned bool
	didOne := make(chan struct{})
	pick := func(a shard.Assignment, gen int) campaign.Runner {
		if a.Index != 1 || gen != 0 {
			if a.Index == 1 {
				respawned = true
			}
			return pureRunner
		}
		// Gen 0 of shard 1: complete one job, then wedge until killed
		// (context cancel stands in for SIGKILL; the checkpointed
		// record survives either way).
		n := 0
		return func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
			n++
			if n > 1 {
				<-ctx.Done()
				return campaign.Record{}, ctx.Err()
			}
			rec, err := pureRunner(ctx, s, j)
			close(didOne)
			return rec, err
		}
	}
	spawn := inProcessSpawn(dir, spec, pick)
	// Kill shard 1's gen-0 worker once its first job is checkpointed.
	wrapped := func(ctx context.Context, a shard.Assignment, gen int) (shard.WorkerHandle, error) {
		h, err := spawn(ctx, a, gen)
		if err == nil && a.Index == 1 && gen == 0 {
			go func() {
				<-didOne
				time.Sleep(30 * time.Millisecond) // let the record land
				h.Kill()
			}()
		}
		return h, err
	}
	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 3, LeaseTTL: 300 * time.Millisecond,
		Spawn: wrapped,
		Log: func(f string, args ...any) {
			logMu.Lock()
			logs = append(logs, strings.TrimSpace(fmt.Sprintf(f, args...)))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("coordinate: %v (logs: %v)", err, logs)
	}
	if !respawned {
		t.Fatal("shard 1 was never reassigned — the test is vacuous")
	}
	if !rep.Complete() {
		t.Fatalf("incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("reassigned summary differs:\n%s\nwant:\n%s", got, want)
	}
	logMu.Lock()
	defer logMu.Unlock()
	var sawReassign bool
	for _, l := range logs {
		if strings.Contains(l, "reassigning") {
			sawReassign = true
		}
	}
	if !sawReassign {
		t.Fatalf("no reassignment logged: %v", logs)
	}
}

// stalledWorker holds the shard lease but never beats — the straggler.
type stalledWorker struct {
	done chan struct{}
	kill chan struct{}
	once sync.Once
	err  error
}

func (w *stalledWorker) Wait() error { <-w.done; return w.err }
func (w *stalledWorker) Kill()       { w.once.Do(func() { close(w.kill) }) }

// TestCoordinateKillsStalledShard: a worker that is alive (lease
// held) but silent past the TTL must be killed and its slice
// reassigned.
func TestCoordinateKillsStalledShard(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ttl := 150 * time.Millisecond
	svc := leasesvc.NewService(ttl)
	healthy := inProcessSpawn(dir, spec, func(shard.Assignment, int) campaign.Runner { return pureRunner })
	var stalledGen0 bool
	spawn := func(ctx context.Context, a shard.Assignment, gen int) (shard.WorkerHandle, error) {
		if a.Index == 0 && gen == 0 {
			stalledGen0 = true
			w := &stalledWorker{done: make(chan struct{}), kill: make(chan struct{})}
			go func() {
				defer close(w.done)
				key := leasesvc.Key{Campaign: norm.IdentityHash(), Shard: a.Index, Of: a.Of}
				if _, err := svc.Acquire(ctx, key, "stalled", ttl); err != nil {
					w.err = err
					return
				}
				<-w.kill // hang, never beating, until the coordinator kills us
				w.err = errors.New("killed while stalled")
			}()
			return w, nil
		}
		return healthy(ctx, a, gen)
	}
	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2, Leases: svc,
		LeaseTTL: ttl,
		Spawn:    spawn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stalledGen0 {
		t.Fatal("stall worker never spawned — vacuous")
	}
	if !rep.Complete() {
		t.Fatalf("incomplete after stall recovery: %v", rep.Missing)
	}
	if res.Total != len(campaign.Expand(spec)) {
		t.Fatalf("Total = %d", res.Total)
	}
}

// TestCoordinateGivesUpAfterMaxRespawns: a shard that dies on every
// generation must abort the campaign with a named-shard error, not
// crash-loop forever.
func TestCoordinateGivesUpAfterMaxRespawns(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	deaths := 0
	pick := func(a shard.Assignment, gen int) campaign.Runner {
		if a.Index != 0 {
			return pureRunner
		}
		deaths++
		return func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
			<-ctx.Done()
			return campaign.Record{}, ctx.Err()
		}
	}
	spawn := inProcessSpawn(dir, spec, pick)
	// Wrap: kill shard 0's worker shortly after spawn so "dies" is fast.
	wrapped := func(ctx context.Context, a shard.Assignment, gen int) (shard.WorkerHandle, error) {
		h, err := spawn(ctx, a, gen)
		if err == nil && a.Index == 0 {
			go func() { time.Sleep(30 * time.Millisecond); h.Kill() }()
		}
		return h, err
	}
	_, _, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2, MaxRespawns: 2,
		LeaseTTL: time.Second,
		Spawn:    wrapped,
	})
	if err == nil {
		t.Fatal("crash-looping shard should abort the campaign")
	}
	if !strings.Contains(err.Error(), "shard 0/2") || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("error should name the shard and the give-up: %v", err)
	}
	if deaths != 3 { // gen 0 + MaxRespawns reassignments
		t.Fatalf("spawned %d generations, want 3", deaths)
	}
}

// TestCoordinateDrainThenResume: a drain mid-run stops cleanly with
// ErrDrained; a second Coordinate over the same directory finishes
// the grid and merges byte-identical — the coordinator-restart path.
func TestCoordinateDrainThenResume(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	drain := make(chan struct{})
	var ran int32
	var ranMu sync.Mutex
	slow := func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
		ranMu.Lock()
		ran++
		if ran == 2 {
			close(drain)
		}
		ranMu.Unlock()
		time.Sleep(5 * time.Millisecond)
		return pureRunner(ctx, s, j)
	}
	_, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2, Drain: drain,
		LeaseTTL: time.Second,
		Spawn:    inProcessSpawn(dir, spec, func(shard.Assignment, int) campaign.Runner { return slow }),
	})
	if !errors.Is(err, campaign.ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	if rep == nil || rep.Complete() {
		t.Fatal("drained run should be incomplete")
	}

	res, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2,
		Spawn: inProcessSpawn(dir, spec, func(shard.Assignment, int) campaign.Runner { return pureRunner }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("resumed coordinate incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("drain+resume summary differs:\n%s\nwant:\n%s", got, want)
	}
}

func TestCoordinateRefusesSecondCoordinator(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	lock, err := durable.AcquireLock(shard.CoordinatorLockPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Release()
	_, _, err = shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2,
		Spawn: inProcessSpawn(dir, spec, func(shard.Assignment, int) campaign.Runner { return pureRunner }),
	})
	if !errors.Is(err, durable.ErrLocked) {
		t.Fatalf("want ErrLocked, got %v", err)
	}
}
