package server

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// fleetWorkerRun builds the Run func a fleet worker uses — the exact
// steps `rhfleet -worker` performs per placement: resolve the
// placement's persisted spec and run the shard under the fenced lease.
func fleetWorkerRun(fleet *leasesvc.Service, ttl time.Duration) func(context.Context, leasesvc.Placement, <-chan struct{}) error {
	return func(ctx context.Context, p leasesvc.Placement, drain <-chan struct{}) error {
		rsv, err := ResolvePlacement(p)
		if err != nil {
			return err
		}
		_, err = shard.RunShard(ctx, shard.RunConfig{
			Dir:        p.Dir,
			Assignment: shard.Assignment{Index: p.Shard, Of: p.Of},
			Spec:       rsv.Spec,
			Runner:     rsv.Runner,
			Drain:      drain,
			BeatEvery:  25 * time.Millisecond,
			Lease:      fleet,
			LeaseTTL:   ttl,
		})
		return err
	}
}

func waitLiveWorkers(t *testing.T, fleet *leasesvc.Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		live := 0
		for _, w := range fleet.Workers() {
			if w.Alive {
				live++
			}
		}
		if live >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%d fleet workers never came alive", n)
}

// TestFleetSubmitByteIdenticalArtifact: a sharded campaign submitted
// to a manager with live registered workers is placed across them and
// the manager's own member alike, and publishes an artifact
// byte-identical to the unsharded in-process run. The workers resolve
// the persisted spec.json themselves, so this also pins the wire
// round-trip a real rhfleet -worker performs.
func TestFleetSubmitByteIdenticalArtifact(t *testing.T) {
	refMgr, refStore := newTestManager(t, t.TempDir(), ManagerConfig{})
	refSt, _, err := refMgr.Submit(tinyFig5())
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, refMgr, refSt.ID); s.State != StateDone {
		t.Fatalf("unsharded run: %+v", s)
	}
	_, want, err := refStore.Get(refSt.ID)
	if err != nil {
		t.Fatal(err)
	}

	ttl := 500 * time.Millisecond
	fleet := leasesvc.NewService(ttl)
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	for _, id := range []string{"w1", "w2"} {
		id := id
		go shard.RunWorker(wctx, shard.WorkerConfig{
			Registry: fleet, ID: id, TTL: ttl,
			Run: fleetWorkerRun(fleet, ttl),
			Log: t.Logf,
		})
	}
	waitLiveWorkers(t, fleet, 2)

	mgr, st := newTestManager(t, t.TempDir(), ManagerConfig{Fleet: fleet, Log: t.Logf})
	spec := tinyFig5()
	spec.Shards = 3
	sub, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != refSt.ID {
		t.Fatalf("fleet fan-out changed the campaign identity: %s vs %s", sub.ID, refSt.ID)
	}
	final := waitTerminal(t, mgr, sub.ID)
	if final.State != StateDone {
		t.Fatalf("fleet run: %+v", final)
	}
	_, got, err := st.Get(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet artifact differs from unsharded run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestFleetLocalMemberRunsEmptyFleet: a Fleet with no workers of its
// own does not strand sharded campaigns — the manager's own member is
// registered with it, and every shard is placed there.
func TestFleetLocalMemberRunsEmptyFleet(t *testing.T) {
	fleet := leasesvc.NewService(500 * time.Millisecond)
	mgr, _ := newTestManager(t, t.TempDir(), ManagerConfig{Fleet: fleet})
	spec := tinyFig5()
	spec.Shards = 2
	sub, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, mgr, sub.ID); s.State != StateDone {
		t.Fatalf("empty-fleet sharded run: %+v", s)
	}
}

// TestFleetLocalMemberFinishesWhenFleetVanishes: when every external
// worker dies mid-campaign, their shards' leases lapse and the
// scheduler reassigns them to the one member left — the manager's
// own — so the campaign completes instead of pinning one of the
// max-active slots on "waiting" forever.
func TestFleetLocalMemberFinishesWhenFleetVanishes(t *testing.T) {
	ttl := 150 * time.Millisecond
	fleet := leasesvc.NewService(ttl)
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan struct{})
	// A worker that acquires whatever it is handed and then blocks,
	// heartbeating its lease — healthy-looking until it is killed.
	go func() {
		defer close(workerDone)
		shard.RunWorker(wctx, shard.WorkerConfig{
			Registry: fleet, ID: "doomed", TTL: ttl, Log: t.Logf,
			Run: func(ctx context.Context, p leasesvc.Placement, _ <-chan struct{}) error {
				g, err := fleet.Acquire(ctx, p.LeaseKey(), "doomed", ttl)
				if err != nil {
					return err
				}
				defer fleet.Release(context.Background(), p.LeaseKey(), g.Token)
				tick := time.NewTicker(ttl / 4)
				defer tick.Stop()
				for seq := uint64(1); ; seq++ {
					select {
					case <-ctx.Done():
						return ctx.Err()
					case <-tick.C:
						fleet.Beat(ctx, p.LeaseKey(), g.Token, leasesvc.Beat{Seq: seq})
					}
				}
			},
		})
	}()
	waitLiveWorkers(t, fleet, 1)

	mgr, st := newTestManager(t, t.TempDir(), ManagerConfig{Fleet: fleet, Log: t.Logf})
	spec := tinyFig5()
	spec.Shards = 2
	sub, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the whole fleet once a shard is visibly running on it, so
	// the campaign has committed to fleet placement.
	deadline := time.Now().Add(10 * time.Second)
	for held := false; !held; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no shard lease ever became held on the fleet")
		}
		for _, v := range fleet.List() {
			held = held || v.Held
		}
	}
	wcancel()
	<-workerDone

	if s := waitTerminal(t, mgr, sub.ID); s.State != StateDone {
		t.Fatalf("vanished-fleet campaign = %+v, want done on the local member", s)
	}
	if _, _, err := st.Get(sub.ID); err != nil {
		t.Fatalf("artifact missing after the fleet vanished: %v", err)
	}
}

// TestShardedNoPollTickOnCriticalPath: with the shipped 15s lease TTL
// the coordinator's poll tick is TTL/4 = 3.75s apart, yet a 4-shard
// campaign finishes far sooner — every placement, lease acquisition
// and release reaches the scheduler and the local member as a change
// signal, so no attempt waits on a tick.
func TestShardedNoPollTickOnCriticalPath(t *testing.T) {
	mgr, _ := newTestManager(t, t.TempDir(), ManagerConfig{})
	spec := tinyFig5()
	spec.Shards = 4
	start := time.Now()
	sub, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, mgr, sub.ID); s.State != StateDone {
		t.Fatalf("sharded run: %+v", s)
	}
	if took, tick := time.Since(start), leasesvc.DefaultTTL/4; took >= tick/2 {
		t.Fatalf("4-shard campaign took %v; a poll tick (%v) is on its critical path", took, tick)
	}
}

// TestShardedFailedCountFromMerge: lease progress carries only
// done/total, so a sharded campaign's failed-job count comes from the
// merge — a campaign whose jobs fail ends failed with Status.Failed
// equal to the failed records in its shard checkpoints.
func TestShardedFailedCountFromMerge(t *testing.T) {
	dir := t.TempDir()
	mgr, _ := newTestManager(t, dir, ManagerConfig{})
	spec := tinyFig5()
	spec.Seed = 2
	spec.JobTimeoutMS = 1 // every job misses its deadline
	spec.Shards = 2
	sub, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, mgr, sub.ID)
	if final.State != StateFailed {
		t.Fatalf("campaign with failing jobs: %+v", final)
	}
	raw, err := spec.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	rsv, err := Resolve(raw)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := shard.MergeShards(rsv.Spec, shard.CheckpointPaths(filepath.Join(dir, "campaigns", sub.ID, "shards"), 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || final.Failed != rep.Failed || final.Done != rep.Records {
		t.Fatalf("status %+v, want failed=%d done=%d from the merged checkpoints", final, rep.Failed, rep.Records)
	}
}

// TestShardedStatusEventsBounded: fleet progress is published only
// when done/total changes, so a sharded campaign's subscribers see at
// most one snapshot per job plus the running and terminal
// transitions — not one per lease heartbeat or scheduler wake-up.
func TestShardedStatusEventsBounded(t *testing.T) {
	mgr, _ := newTestManager(t, t.TempDir(), ManagerConfig{})
	spec := tinyFig5()
	spec.Shards = 4
	sub, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, ok := mgr.Subscribe(sub.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()
	<-ch // the snapshot current at subscription
	events := 0
	var last Status
	for st := range ch {
		events++
		last = st
	}
	if last.State != StateDone {
		t.Fatalf("terminal snapshot %+v", last)
	}
	if events > last.Total+2 {
		t.Fatalf("%d status events for %d jobs, want at most %d", events, last.Total, last.Total+2)
	}
}
