package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/durable"
	"rowhammer/internal/leasesvc"
)

// WorkerHandle is a running shard worker as the coordinator sees it —
// an exec'd rhfleet subprocess or an in-process goroutine; the
// coordinator does not care which.
type WorkerHandle interface {
	// Wait blocks until the worker has fully stopped. Wait returns nil
	// only when the worker finished its shard cleanly; any other
	// outcome (crash, drain, failed jobs) is a non-nil error, and the
	// coordinator re-reads the checkpoint to decide what remains.
	Wait() error
	// Kill stops the worker immediately (SIGKILL or context cancel).
	Kill()
}

// DrainableWorker is optionally implemented by handles that can be
// asked to stop gracefully: finish in-flight jobs, checkpoint, exit.
type DrainableWorker interface{ Drain() }

// SpawnFunc starts a worker for one shard. gen is 0 for the first
// spawn and increments on every reassignment of that shard — the seam
// crash drills use to arm a failpoint on one generation only. ctx
// carries the coordinator's lease service: an in-process worker's
// RunShard picks it up when its RunConfig.Lease is nil, and an exec'd
// worker is handed the service's URL instead.
type SpawnFunc func(ctx context.Context, a Assignment, gen int) (WorkerHandle, error)

// Config configures a Coordinate run.
type Config struct {
	// Dir is the shard directory (created if absent).
	Dir string
	// Spec is the resolved campaign spec all shards execute.
	Spec campaign.Spec
	// Shards is the partition width N (>= 1).
	Shards int
	// Spawn starts one shard worker — local placement, where the
	// coordinator owns the worker processes. When nil, the coordinator
	// places shards onto workers registered with Leases' worker
	// registry instead (rhfleet -worker processes pulling assignments
	// over /v1/workers/beat) and rebalances queued shards off slow
	// workers. Supervision — stall kill, reassignment bounded by
	// MaxRespawns, completion judged from checkpoints on disk — is the
	// same code path either way.
	Spawn SpawnFunc
	// Leases is the lease service every shard attempt is owned
	// through: attempts acquire fenced leases from it, and the
	// coordinator watches them for liveness and progress. When nil,
	// Coordinate runs a private in-memory service with LeaseTTL as its
	// default TTL. Fleet placement (Spawn nil) requires it.
	Leases *leasesvc.Service
	// LeaseTTL is how long a held lease may go without a heartbeat
	// before the worker is declared stalled and killed. Default: the
	// lease service's default TTL (15s for a private service). The
	// coordinator polls every LeaseTTL/4 for stalls and registrations
	// and otherwise reacts to the lease service's change signal.
	LeaseTTL time.Duration
	// MaxRespawns bounds reassignments per shard; exceeding it aborts
	// the campaign rather than respawning a crash-looping worker
	// forever. Default 3.
	MaxRespawns int
	// Progress, when non-nil, receives campaign-wide done/total as
	// observed through the shard leases (fleet placement only; done is
	// monotone because lease progress survives fencing handovers).
	Progress func(done, total int)
	// Drain, when delivered or closed, stops the run gracefully:
	// workers are asked to drain, nothing is respawned, and Coordinate
	// returns campaign.ErrDrained if the grid is incomplete.
	Drain <-chan struct{}
	// Log, when non-nil, receives one-line progress messages.
	Log func(format string, args ...any)
}

// leasesKey carries the coordinator's lease service, as a
// leasesvc.API, to spawned in-process attempts through the spawn
// context.
type leasesKey struct{}

// exitEvent is one shard attempt's termination as seen by the event
// loop — a local worker process exiting, or (fleet mode) the shard's
// lease lapsing after having been held.
type exitEvent struct {
	idx int
	gen int
	err error
}

// Coordinate supervises an N-way sharded campaign run to completion:
// start an attempt per incomplete shard (spawn a worker locally, or
// place the shard onto a registered fleet worker), watch the shard
// leases to catch stalled workers, reassign a dead shard's remaining
// jobs to a fresh attempt (bounded by MaxRespawns), and finally merge
// the shard checkpoints into one result byte-identical to a
// single-process run. A complete merge drops the campaign's entries
// from the lease service (leasesvc.Service.Forget); a drained or
// failed run keeps them.
//
// A shard counts as complete when every job it owns has a checkpoint
// record — failed records included, matching single-process semantics
// where a job that exhausts its retries is recorded, not respawned.
// Completion is always judged from the checkpoints on disk, never
// from worker exit codes, so a coordinator that is itself killed and
// restarted picks up exactly where the directory says things stand.
func Coordinate(ctx context.Context, cfg Config) (*campaign.Result, *MergeReport, error) {
	spec, err := cfg.Spec.Normalize()
	if err != nil {
		return nil, nil, err
	}
	if cfg.Shards < 1 {
		return nil, nil, fmt.Errorf("shard: Config.Shards must be >= 1, got %d", cfg.Shards)
	}
	svc := cfg.Leases
	if svc == nil {
		if cfg.Spawn == nil {
			return nil, nil, fmt.Errorf("shard: Config.Spawn or Config.Leases is required")
		}
		svc = leasesvc.NewService(cfg.LeaseTTL)
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = svc.DefaultLeaseTTL()
	}
	maxRespawns := cfg.MaxRespawns
	if maxRespawns <= 0 {
		maxRespawns = 3
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	coordLock, err := durable.AcquireLock(CoordinatorLockPath(cfg.Dir))
	if err != nil {
		return nil, nil, fmt.Errorf("shard: another coordinator owns %s: %w", cfg.Dir, err)
	}
	defer coordLock.Release()

	ctx = context.WithValue(ctx, leasesKey{}, leasesvc.API(svc))
	// Taken before anything is started, so no lease or placement change
	// from here on can slip between an observation and the next wait.
	changed := svc.Changed()
	hash := spec.IdentityHash()
	leaseKey := func(a Assignment) leasesvc.Key {
		return leasesvc.Key{Campaign: hash, Shard: a.Index, Of: a.Of}
	}
	stalls := &StallTracker{}
	parts := Partition(cfg.Shards)

	// The executor is the only thing that differs between local and
	// fleet placement; everything below it — the supervision loop, the
	// stall judgment, reassignment bounds, disk-is-truth completion —
	// is shared.
	var exec executor
	if cfg.Spawn == nil {
		exec = newFleetExecutor(svc, cfg.Dir, spec, parts, ttl, logf, cfg.Progress)
	} else {
		exec = newLocalExecutor(cfg.Spawn, svc, hash, len(parts))
	}
	defer exec.Close()

	// active maps a running shard to its generation and to its lease's
	// token when the attempt started: a later token is the attempt's
	// own acquisition, the only lease whose silence counts as a stall.
	type attempt struct {
		gen  int
		base uint64
	}
	active := make(map[int]attempt, cfg.Shards)
	gens := make(map[int]int, cfg.Shards)
	done := make(map[int]bool, cfg.Shards)

	start := func(a Assignment) error {
		var base uint64
		if v, ok, err := svc.View(ctx, leaseKey(a)); err == nil && ok {
			base = v.Token
		}
		gen := gens[a.Index]
		if err := exec.Start(ctx, a, gen); err != nil {
			return fmt.Errorf("shard %s: spawn: %w", a, err)
		}
		active[a.Index] = attempt{gen: gen, base: base}
		return nil
	}

	// Judge every shard from disk before starting anything: a restarted
	// coordinator skips shards whose checkpoints are already complete.
	for _, a := range parts {
		missing, haveCkpt, err := shardMissing(spec, a, CheckpointPath(cfg.Dir, a))
		if err != nil {
			return nil, nil, err
		}
		if haveCkpt && len(missing) == 0 {
			done[a.Index] = true
			continue
		}
		if haveCkpt {
			logf("shard %s: resuming, %d job(s) remaining", a, len(missing))
		}
		// Seed the lease's token floor from the fence already on disk,
		// so the first acquisition outranks every earlier writer.
		fence, err := ReadFence(FencePath(cfg.Dir, a))
		if err != nil {
			return nil, nil, err
		}
		if err := svc.RaiseFloor(leaseKey(a), fence); err != nil {
			return nil, nil, err
		}
		if err := start(a); err != nil {
			return nil, nil, err
		}
	}

	draining := false
	drain := cfg.Drain
	ticker := time.NewTicker(ttl / 4)
	defer ticker.Stop()
	for len(active) > 0 {
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-drain:
			drain = nil // a closed channel stays ready; drain once
			draining = true
			logf("coordinator: draining %d active shard(s)", len(active))
			for idx := range active {
				exec.Drain(parts[idx])
			}
		case <-changed:
			// A lease was acquired, beaten or released, or a placement
			// moved: let the executor observe it now. This is how fleet
			// placement sees an attempt end the moment its lease is
			// released rather than on the next poll tick.
			changed = svc.Changed()
			exec.Tick()
		case <-ticker.C:
			// The poll tick observes what no change signals: worker
			// registrations coming and going, and time passing.
			changed = svc.Changed()
			exec.Tick()
			// A dead worker surfaces through its exit event; the lease
			// watch exists for stragglers — alive but silent. Staleness
			// is judged by Seq monotonicity on our own clock, so a
			// clock-skewed host with an advancing Seq is never mistaken
			// for a stall.
			for idx, at := range active {
				a := parts[idx]
				v, ok, err := svc.View(ctx, leaseKey(a))
				if err != nil || !ok || v.Token <= at.base {
					continue
				}
				if stalls.Stalled(idx, v, ttl) {
					logf("shard %s: stalled (heartbeat seq %d frozen for > %s, owner %s); killing",
						a, v.Seq, ttl, v.Owner)
					exec.Kill(a)
				}
			}
		case ev := <-exec.Events():
			delete(active, ev.idx)
			stalls.Forget(ev.idx)
			a := parts[ev.idx]
			missing, haveCkpt, merr := shardMissing(spec, a, CheckpointPath(cfg.Dir, a))
			if merr != nil {
				return nil, nil, merr
			}
			if haveCkpt && len(missing) == 0 {
				done[ev.idx] = true
				if ev.err != nil {
					// Every job has a record despite the non-clean exit:
					// the worker died after its last record landed, or
					// some jobs are recorded as failed.
					logf("shard %s: complete (worker exited: %v)", a, ev.err)
				} else {
					logf("shard %s: complete", a)
				}
				continue
			}
			if draining {
				logf("shard %s: drained with %d job(s) remaining", a, len(missing))
				continue
			}
			gens[ev.idx]++
			if gens[ev.idx] > maxRespawns {
				// Wrap the last attempt's error so callers see the cause.
				return nil, nil, fmt.Errorf(
					"shard %s: gave up after %d reassignment(s); %d job(s) still missing (last worker: %w)",
					a, maxRespawns, len(missing), ev.err)
			}
			logf("shard %s: worker gen %d died with %d job(s) remaining (%v); reassigning to gen %d",
				a, ev.gen, len(missing), ev.err, gens[ev.idx])
			if err := start(a); err != nil {
				return nil, nil, err
			}
			// Fence the dead generation out while its successor boots.
			// The successor's acquisition mints the next token, so its
			// own raise then finds the fence already in place and the
			// atomic write leaves its path to the first record.
			if err := RaiseFence(FencePath(cfg.Dir, a), active[ev.idx].base+1); err != nil {
				logf("shard %s: fencing out gen %d: %v", a, ev.gen, err)
			}
		}
	}

	res, rep, err := MergeShards(spec, CheckpointPaths(cfg.Dir, cfg.Shards))
	if err != nil {
		return nil, nil, err
	}
	if !rep.Complete() {
		if draining {
			return res, rep, campaign.ErrDrained
		}
		return res, rep, fmt.Errorf("shard: merge incomplete: %d job(s) missing", len(rep.Missing))
	}
	// Done: the campaign's lease entries have nothing left to guard.
	// The fence files keep every shard's floor for a rerun.
	svc.Forget(hash)
	return res, rep, nil
}

// shardMissing reports the shard's jobs that have no checkpoint
// record at all (failed records count as done — they are results),
// plus whether the checkpoint file exists yet.
func shardMissing(spec campaign.Spec, a Assignment, ckptPath string) (missing []string, haveCkpt bool, err error) {
	recs := map[string]campaign.Record{}
	if _, statErr := os.Stat(ckptPath); statErr == nil {
		haveCkpt = true
		rep, lerr := campaign.LoadCheckpointReport(ckptPath, campaign.ResumeOptions{ExpectSpec: &spec})
		if lerr != nil {
			return nil, true, fmt.Errorf("shard %s: %s: %w", a, ckptPath, lerr)
		}
		if h := rep.Header; h != nil && (h.Shard != a.Index || h.Of != a.Of) {
			return nil, true, fmt.Errorf("%w: %s holds shard %d/%d, expected %s",
				campaign.ErrShardMismatch, ckptPath, h.Shard, h.Of, a)
		}
		recs = rep.Records
	} else if !errors.Is(statErr, os.ErrNotExist) {
		return nil, false, statErr
	}
	for _, j := range a.Jobs(spec) {
		if _, ok := recs[j.Key()]; !ok {
			missing = append(missing, j.Key())
		}
	}
	return missing, haveCkpt, nil
}
