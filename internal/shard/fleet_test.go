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
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// fleetHarness is an in-process fleet: one lease service (registry +
// shard leases) and N RunWorker loops whose Run executes RunShard
// against that same service — the exact composition the binaries
// deploy across machines, minus the wire.
type fleetHarness struct {
	t    *testing.T
	svc  *leasesvc.Service
	ttl  time.Duration
	dir  string
	spec campaign.Spec

	mu      sync.Mutex
	cancels map[string]context.CancelFunc
	drains  map[string]chan struct{}
	done    map[string]chan error
}

func newFleetHarness(t *testing.T, dir string, spec campaign.Spec, ttl time.Duration) *fleetHarness {
	return &fleetHarness{
		t: t, svc: leasesvc.NewService(ttl), ttl: ttl, dir: dir, spec: spec,
		cancels: map[string]context.CancelFunc{},
		drains:  map[string]chan struct{}{},
		done:    map[string]chan error{},
	}
}

// startWorker launches worker id. runner may be nil for pureRunner;
// onRecord, when non-nil, observes every finished job.
func (h *fleetHarness) startWorker(id string, runner campaign.Runner, onRecord func(p leasesvc.Placement)) {
	if runner == nil {
		runner = pureRunner
	}
	ctx, cancel := context.WithCancel(context.Background())
	drain := make(chan struct{})
	done := make(chan error, 1)
	h.mu.Lock()
	h.cancels[id] = cancel
	h.drains[id] = drain
	h.done[id] = done
	h.mu.Unlock()
	go func() {
		done <- shard.RunWorker(ctx, shard.WorkerConfig{
			Registry: h.svc, ID: id, TTL: h.ttl,
			Drain: drain,
			Log:   h.t.Logf,
			Run: func(ctx context.Context, p leasesvc.Placement, pdrain <-chan struct{}) error {
				_, err := shard.RunShard(ctx, shard.RunConfig{
					Dir:        p.Dir,
					Assignment: shard.Assignment{Index: p.Shard, Of: p.Of},
					Spec:       h.spec, Runner: runner,
					Drain: pdrain, BeatEvery: 20 * time.Millisecond,
					Lease: h.svc, LeaseTTL: h.ttl,
					Owner: id,
					Progress: func(_, _ int, _ campaign.Record) {
						if onRecord != nil {
							onRecord(p)
						}
					},
				})
				return err
			},
		})
	}()
	h.waitRegistered(id)
}

func (h *fleetHarness) waitRegistered(id string) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, w := range h.svc.Workers() {
			if w.ID == id && w.Alive {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.t.Fatalf("worker %s never registered", id)
}

func (h *fleetHarness) kill(id string) {
	h.mu.Lock()
	cancel := h.cancels[id]
	done := h.done[id]
	h.mu.Unlock()
	cancel()
	<-done
	h.mu.Lock()
	delete(h.drains, id)
	delete(h.done, id)
	h.mu.Unlock()
}

func (h *fleetHarness) drainAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, d := range h.drains {
		close(d)
		if err := <-h.done[id]; !errors.Is(err, campaign.ErrDrained) {
			h.t.Errorf("worker %s drain returned %v, want ErrDrained", id, err)
		}
	}
}

// TestFleetCoordinateHappyPath: shards submitted to a fleet of
// registered workers complete with zero spawned processes, and the
// merged result is byte-identical to a single-process run.
func TestFleetCoordinateHappyPath(t *testing.T) {
	spec := testSpec()
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	ttl := 400 * time.Millisecond
	h := newFleetHarness(t, dir, spec, ttl)
	h.startWorker("w1", nil, nil)
	h.startWorker("w2", nil, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var progressed bool
	res, rep, err := shard.Coordinate(ctx, shard.Config{
		Dir: dir, Spec: spec, Shards: 4,
		Leases: h.svc, LeaseTTL: ttl,
		Progress: func(done, total int) {
			if done > 0 && total == len(campaign.Expand(spec)) {
				progressed = true
			}
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet coordinate: %v", err)
	}
	if !rep.Complete() {
		t.Fatalf("incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("fleet summary differs:\n%s\nwant:\n%s", got, want)
	}
	if !progressed {
		t.Fatal("Progress never observed done > 0 with the campaign-wide total")
	}
	h.drainAll()
}

// TestFleetCoordinateWorkerLossReassigns: a worker dies mid-shard; the
// scheduler reassigns its started shard (gen+1, through the lease
// lapse) and re-places its queued shards on the survivor, and the
// merge is still byte-identical.
func TestFleetCoordinateWorkerLossReassigns(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)

	dir := t.TempDir()
	ttl := 400 * time.Millisecond
	h := newFleetHarness(t, dir, spec, ttl)

	var recOnce sync.Once
	firstRecord := make(chan struct{})
	// w1 reports each record; slow jobs so the kill lands mid-shard.
	slow := func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
		time.Sleep(30 * time.Millisecond)
		return pureRunner(ctx, s, j)
	}
	h.startWorker("w1", slow, func(leasesvc.Placement) {
		recOnce.Do(func() { close(firstRecord) })
	})
	h.startWorker("w2", nil, nil)

	go func() {
		<-firstRecord
		time.Sleep(30 * time.Millisecond) // let the record land in the checkpoint
		h.kill("w1")
	}()

	var logMu sync.Mutex
	var logs []string
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, rep, err := shard.Coordinate(ctx, shard.Config{
		Dir: dir, Spec: spec, Shards: 3,
		Leases: h.svc, LeaseTTL: ttl,
		Log: func(f string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(f, args...))
			logMu.Unlock()
			t.Logf(f, args...)
		},
	})
	if err != nil {
		t.Fatalf("fleet coordinate after worker loss: %v", err)
	}
	if !rep.Complete() {
		t.Fatalf("incomplete: %v", rep.Missing)
	}
	if got := summarize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("post-loss summary differs:\n%s\nwant:\n%s", got, want)
	}
	logMu.Lock()
	defer logMu.Unlock()
	var sawReassign bool
	for _, l := range logs {
		if strings.Contains(l, "reassigning") || strings.Contains(l, "re-placing") {
			sawReassign = true
		}
	}
	if !sawReassign {
		t.Fatalf("worker loss never triggered a reassignment: %v", logs)
	}
	h.drainAll()
}

// TestFleetCoordinateBoundsUnstartablePlacement: a placement its
// worker can never start (Run fails instantly, so the shard lease is
// never acquired) must exhaust MaxRespawns and abort — not hang the
// campaign forever.
func TestFleetCoordinateBoundsUnstartablePlacement(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ttl := 100 * time.Millisecond
	h := newFleetHarness(t, dir, spec, ttl)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- shard.RunWorker(ctx, shard.WorkerConfig{
			Registry: h.svc, ID: "broken", TTL: ttl, Log: t.Logf,
			Run: func(context.Context, leasesvc.Placement, <-chan struct{}) error {
				return errors.New("cannot start anything")
			},
		})
	}()
	h.waitRegistered("broken")

	cctx, ccancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer ccancel()
	_, _, err := shard.Coordinate(cctx, shard.Config{
		Dir: dir, Spec: spec, Shards: 1, MaxRespawns: 1,
		Leases: h.svc, LeaseTTL: ttl,
		Log: t.Logf,
	})
	if err == nil {
		t.Fatal("an unstartable placement should abort the campaign")
	}
	if !strings.Contains(err.Error(), "gave up") || !strings.Contains(err.Error(), "never acquired") {
		t.Fatalf("error should carry the give-up and the starvation cause: %v", err)
	}
	cancel()
	<-done
}

// TestFleetForeignBusySlotIsNotStarvation: the starvation bound must
// judge a worker's free capacity service-wide. Here the only worker's
// single slot is occupied by another campaign's placement (its shard
// lease held by a different scheduler), so our queued shard is
// legitimately waiting, not wedged — with slot-blind accounting it
// would be judged "never acquired the shard lease" after 6×TTL,
// burn through MaxRespawns, and falsely abort.
func TestFleetForeignBusySlotIsNotStarvation(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ttl := 100 * time.Millisecond
	h := newFleetHarness(t, dir, spec, ttl)

	foreign := leasesvc.Placement{Campaign: "feedfacefeedface", Dir: dir, Shard: 0, Of: 1}
	foreignHeld := make(chan struct{})
	releaseForeign := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- shard.RunWorker(ctx, shard.WorkerConfig{
			Registry: h.svc, ID: "shared", TTL: ttl, Slots: 1, Log: t.Logf,
			Run: func(ctx context.Context, p leasesvc.Placement, pdrain <-chan struct{}) error {
				if p == foreign {
					// The other campaign's shard: hold its lease and
					// keep beating until released.
					g, err := h.svc.Acquire(ctx, p.LeaseKey(), "other-campaign", ttl)
					if err != nil {
						return err
					}
					defer h.svc.Release(context.Background(), p.LeaseKey(), g.Token)
					close(foreignHeld)
					tick := time.NewTicker(ttl / 4)
					defer tick.Stop()
					for seq := uint64(1); ; seq++ {
						select {
						case <-releaseForeign:
							return nil
						case <-ctx.Done():
							return ctx.Err()
						case <-tick.C:
							h.svc.Beat(ctx, p.LeaseKey(), g.Token, leasesvc.Beat{Seq: seq})
						}
					}
				}
				_, err := shard.RunShard(ctx, shard.RunConfig{
					Dir:        p.Dir,
					Assignment: shard.Assignment{Index: p.Shard, Of: p.Of},
					Spec:       h.spec, Runner: pureRunner,
					Drain: pdrain, BeatEvery: 20 * time.Millisecond,
					Lease: h.svc, LeaseTTL: ttl, Owner: "shared",
				})
				return err
			},
		})
	}()
	h.waitRegistered("shared")
	if err := h.svc.Assign("shared", foreign); err != nil {
		t.Fatal(err)
	}
	<-foreignHeld

	// Free the slot only after the 6×TTL starvation bound would have
	// fired twice over — with MaxRespawns 1, slot-blind accounting
	// would have aborted the campaign well before this.
	go func() {
		time.Sleep(14 * ttl)
		close(releaseForeign)
	}()

	cctx, ccancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer ccancel()
	_, rep, err := shard.Coordinate(cctx, shard.Config{
		Dir: dir, Spec: spec, Shards: 1, MaxRespawns: 1,
		Leases: h.svc, LeaseTTL: ttl,
		Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("campaign aborted while its worker was busy with another campaign: %v", err)
	}
	if !rep.Complete() {
		t.Fatalf("incomplete: %v", rep.Missing)
	}
	cancel()
	<-workerDone
}
