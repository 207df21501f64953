package shard

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/leasesvc"
)

// WorkerConfig configures RunWorker — the pull loop a fleet worker
// runs against the placement layer.
type WorkerConfig struct {
	// Registry is the worker-registry protocol (required): *Service in
	// process, *Client across machines — the worker cannot tell.
	Registry leasesvc.RegistryAPI
	// ID names the worker's registration (default leasesvc's host:pid
	// owner string). Re-using an ID supersedes the previous holder.
	ID string
	// Slots is how many placements run concurrently (default 1).
	Slots int
	// TTL is the registration heartbeat TTL (default leasesvc's).
	TTL time.Duration
	// Run executes one placement (required). It is expected to acquire
	// the placement's shard lease itself (RunShard with a Lease does
	// exactly that), so a stale assignment delivered to two workers
	// costs one of them a refused acquire, never a duplicate record.
	// The drain channel closes when the scheduler withdraws the
	// placement; Run should stop gracefully and checkpoint.
	Run func(ctx context.Context, p leasesvc.Placement, drain <-chan struct{}) error
	// Drain, when delivered or closed, stops the worker gracefully:
	// in-flight placements finish draining, the worker deregisters,
	// and RunWorker returns campaign.ErrDrained.
	Drain <-chan struct{}
	// Log, when non-nil, receives one-line progress messages.
	Log func(format string, args ...any)
}

// RunWorker registers with the placement layer and executes whatever
// shard placements the scheduler assigns, until the context ends or a
// drain is requested. Assignments arrive as heartbeat answers: each
// beat returns the worker's current placement set, and the loop
// reconciles — new placements start (up to Slots at a time, the rest
// queue), withdrawn placements drain. Liveness flows the other way on
// the same channel: the scheduler trusts this worker only while its
// beat Seq keeps advancing. Against an in-process *leasesvc.Service
// (any Registry with its Changed method) the worker also beats
// whenever the service signals a lease or placement change, so a
// placement starts the moment it is assigned.
//
// Correctness never rests on this loop. A worker that misses every
// memo still cannot corrupt a campaign: each placement's runner holds
// the shard's fenced lease, and a superseded registration only means
// the scheduler stopped counting on us.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Registry == nil {
		return fmt.Errorf("shard: WorkerConfig.Registry is required")
	}
	if cfg.Run == nil {
		return fmt.Errorf("shard: WorkerConfig.Run is required")
	}
	id := cfg.ID
	if id == "" {
		id = leasesvc.DefaultOwner()
	}
	slots := cfg.Slots
	if slots < 1 {
		slots = 1
	}
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = leasesvc.DefaultTTL
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	grant, err := cfg.Registry.RegisterWorker(ctx, id, id, slots, ttl)
	if err != nil {
		return fmt.Errorf("shard: worker %s: register: %w", id, err)
	}
	token := grant.Token
	logf("worker %s: registered (token %d, %d slot(s), ttl %s)", id, token, slots, grant.TTL)

	type placementDone struct {
		p   leasesvc.Placement
		err error
	}
	type placementRun struct {
		drain chan struct{}
		stop  sync.Once
	}
	running := map[leasesvc.Placement]*placementRun{}
	completed := map[leasesvc.Placement]bool{}
	failedAt := map[leasesvc.Placement]time.Time{}
	var pending []leasesvc.Placement
	finished := make(chan placementDone, slots+1)
	var wg sync.WaitGroup

	startEligible := func() {
		for len(running) < slots {
			picked := -1
			for i, p := range pending {
				// A placement that just failed gets a TTL of quiet
				// before a retry: without it, a placement that fails
				// instantly (unreadable spec, bad dir) would hot-loop
				// until the scheduler's own patience reassigns it.
				if t, ok := failedAt[p]; ok && time.Since(t) < ttl {
					continue
				}
				picked = i
				break
			}
			if picked < 0 {
				return
			}
			p := pending[picked]
			pending = append(pending[:picked], pending[picked+1:]...)
			r := &placementRun{drain: make(chan struct{})}
			running[p] = r
			logf("worker %s: starting shard %d/%d (%s)", id, p.Shard, p.Of, p.Dir)
			wg.Add(1)
			go func() {
				defer wg.Done()
				finished <- placementDone{p: p, err: cfg.Run(ctx, p, r.drain)}
			}()
		}
	}

	reconcile := func(ps []leasesvc.Placement, allowWithdraw bool) {
		desired := map[leasesvc.Placement]bool{}
		for _, p := range ps {
			desired[p] = true
		}
		if allowWithdraw {
			for p, r := range running {
				if !desired[p] {
					r.stop.Do(func() { close(r.drain) })
					logf("worker %s: shard %d/%d withdrawn; draining", id, p.Shard, p.Of)
				}
			}
			kept := pending[:0]
			for _, p := range pending {
				if desired[p] {
					kept = append(kept, p)
				}
			}
			pending = kept
			// The scheduler is done with these: forget them, or a
			// long-lived worker remembers every placement it ever ran.
			maps.DeleteFunc(completed, func(p leasesvc.Placement, _ bool) bool { return !desired[p] })
			maps.DeleteFunc(failedAt, func(p leasesvc.Placement, _ time.Time) bool { return !desired[p] })
		}
		for _, p := range ps {
			if running[p] != nil || completed[p] {
				continue
			}
			queuedAlready := false
			for _, q := range pending {
				if q == p {
					queuedAlready = true
					break
				}
			}
			if !queuedAlready {
				pending = append(pending, p)
			}
		}
		startEligible()
	}

	stopAll := func() {
		for _, r := range running {
			r.stop.Do(func() { close(r.drain) })
		}
	}
	collectAll := func() {
		for len(running) > 0 {
			f := <-finished
			delete(running, f.p)
		}
		wg.Wait()
	}
	deregister := func() {
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		cfg.Registry.DeregisterWorker(dctx, id, token)
	}

	beatEvery := ttl / 4
	if beatEvery < 25*time.Millisecond {
		beatEvery = 25 * time.Millisecond
	}
	ticker := time.NewTicker(beatEvery)
	defer ticker.Stop()
	var seq uint64
	var beatFailing bool
	// After a (re-)registration the service holds no assignments for
	// our token yet; give the scheduler a beat or two to re-assert
	// them before treating an empty answer as a withdrawal of
	// everything we are running.
	withdrawalsAfter := time.Now().Add(ttl)
	beat := func() {
		seq++
		ps, err := cfg.Registry.WorkerBeat(ctx, id, token, seq)
		switch {
		case err == nil:
			beatFailing = false
			reconcile(ps, time.Now().After(withdrawalsAfter))
		case errors.Is(err, leasesvc.ErrFenced), errors.Is(err, leasesvc.ErrUnknown):
			// Superseded (or the registry restarted and forgot us):
			// take the identity back. Running placements keep
			// running — their shard leases, not this registration,
			// carry correctness.
			logf("worker %s: registration superseded (%v); re-registering", id, err)
			g, rerr := cfg.Registry.RegisterWorker(ctx, id, id, slots, ttl)
			if rerr != nil {
				logf("worker %s: re-register: %v", id, rerr)
				return
			}
			token, seq = g.Token, 0
			withdrawalsAfter = time.Now().Add(ttl)
		case errors.Is(err, context.Canceled):
			// The ctx arm will handle shutdown.
		default:
			if !beatFailing {
				beatFailing = true
				logf("worker %s: heartbeat failing (%v); placements keep running, leases carry correctness", id, err)
			}
		}
	}
	// An in-process service signals lease and placement changes; a
	// remote registry is heard only on the ticker (nil blocks forever).
	var changed <-chan struct{}
	svc, inproc := cfg.Registry.(interface{ Changed() <-chan struct{} })
	if inproc {
		changed = svc.Changed()
	}

	for {
		select {
		case <-ctx.Done():
			stopAll()
			collectAll()
			deregister()
			return ctx.Err()
		case <-cfg.Drain:
			logf("worker %s: draining %d running placement(s)", id, len(running))
			stopAll()
			collectAll()
			deregister()
			return campaign.ErrDrained
		case f := <-finished:
			delete(running, f.p)
			switch {
			case f.err == nil:
				completed[f.p] = true
				delete(failedAt, f.p)
				logf("worker %s: shard %d/%d complete", id, f.p.Shard, f.p.Of)
			case errors.Is(f.err, campaign.ErrDrained):
				logf("worker %s: shard %d/%d drained", id, f.p.Shard, f.p.Of)
			default:
				failedAt[f.p] = time.Now()
				logf("worker %s: shard %d/%d failed: %v", id, f.p.Shard, f.p.Of, f.err)
			}
			startEligible()
		case <-changed:
			// Worker beats never signal, so this cannot wake itself.
			changed = svc.Changed()
			beat()
		case <-ticker.C:
			beat()
		}
	}
}
