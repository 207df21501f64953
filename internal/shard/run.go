package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/leasesvc"
)

// RunConfig configures one shard worker run.
type RunConfig struct {
	// Dir is the shard directory (layout helpers name the files).
	Dir string
	// Assignment is the shard's slice of the grid.
	Assignment Assignment
	// Spec is the resolved engine spec — identical across all shards
	// of the campaign; the assignment, not the spec, is what differs.
	Spec campaign.Spec
	// Runner executes jobs (required).
	Runner campaign.Runner
	// Drain, when delivered or closed, stops dispatch gracefully —
	// in-flight jobs finish and checkpoint, RunShard returns
	// campaign.ErrDrained.
	Drain <-chan struct{}
	// Progress, when non-nil, receives per-job completion callbacks
	// with shard-local totals.
	Progress func(done, total int, rec campaign.Record)
	// BeatEvery is the idle heartbeat interval (default 1s); every
	// finished job also beats, so the lease's Done counter tracks the
	// checkpoint. It should be well under the coordinator's LeaseTTL.
	BeatEvery time.Duration
	// ArmCheckpoint, when non-nil, is handed the checkpoint writer
	// before any byte is written — the crash-injection seam.
	ArmCheckpoint func(*campaign.CheckpointWriter)
	// Log, when non-nil, receives one-line progress messages.
	Log func(format string, args ...any)

	// Lease is the lease service the shard is owned through:
	// acquisition mints a fencing token that is raised into the
	// shard's fence file and stamped into (and enforced on) every
	// record append, and heartbeat failures degrade gracefully — after
	// LeaseTTL of continuous failure the worker self-fences: drains
	// in-flight work, flushes its checkpoint, and returns
	// campaign.ErrDrained. When nil, RunShard uses the service of the
	// coordinator that spawned it (carried in ctx); outside a
	// coordinator it is required.
	Lease leasesvc.API
	// LeaseTTL is the TTL requested at acquisition (default: the
	// service's own).
	LeaseTTL time.Duration
	// Owner labels the acquisition in the service for diagnostics
	// (default host:pid).
	Owner string
}

// RunShard executes one shard of a campaign: acquire the shard's
// fenced lease, resume from the shard checkpoint, run exactly the
// assigned jobs through the engine, and heartbeat the lease
// throughout. On return the lease is released; on SIGKILL the
// spawning coordinator releases it (or, with nobody watching, the
// service ages it out). The checkpoint survives either way, which is
// what makes the shard's remaining jobs computable by whoever takes
// over — and the fence file guarantees whoever took over is the only
// one still able to write.
func RunShard(ctx context.Context, cfg RunConfig) (*campaign.Result, error) {
	if err := cfg.Assignment.Validate(); err != nil {
		return nil, err
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("shard: RunConfig.Runner is required")
	}
	svc := cfg.Lease
	if svc == nil {
		svc, _ = ctx.Value(leasesKey{}).(leasesvc.API)
	}
	if svc == nil {
		return nil, fmt.Errorf("shard: RunConfig.Lease is required outside a coordinator")
	}
	spec, err := cfg.Spec.Normalize()
	if err != nil {
		return nil, err
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	a := cfg.Assignment
	only := a.Filter(spec)
	ckptPath := CheckpointPath(cfg.Dir, a)

	owner := cfg.Owner
	if owner == "" {
		owner = leasesvc.DefaultOwner()
	}
	key := leasesvc.Key{Campaign: spec.IdentityHash(), Shard: a.Index, Of: a.Of}
	keeper, err := acquireLease(ctx, svc, key, owner, cfg.LeaseTTL, logf)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", a, err)
	}
	defer keeper.release()
	if err := RaiseFence(FencePath(cfg.Dir, a), keeper.token); err != nil {
		return nil, fmt.Errorf("shard %s: %w", a, err)
	}
	logf("shard %s: remote lease acquired, fencing token %d (ttl %s)", a, keeper.token, keeper.ttl)
	beatFn := func(done, total int) {
		// Bounded so a wedged network cannot pile up beats; a deadline
		// here is network weather, cancellation of ctx is shutdown —
		// keeper.beat tells them apart.
		bctx, cancel := context.WithTimeout(ctx, beatTimeout(keeper.ttl))
		keeper.beat(bctx, done, total)
		cancel()
	}
	// Self-fencing merges into the drain path: fenced or drained, the
	// engine stops dispatch, finishes in-flight jobs, and the
	// checkpoint keeps every record that made it.
	drain := make(chan struct{})
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-keeper.fenced:
			close(drain)
		case <-cfg.Drain:
			close(drain)
		case <-stop:
		}
	}()

	cw, rep, err := campaign.OpenCheckpoint(ckptPath, spec, a.Index, a.Of)
	if err != nil {
		return nil, fmt.Errorf("shard %s: resume %s: %w", a, ckptPath, err)
	}
	defer cw.Close()
	if len(rep.Records) > 0 {
		logf("shard %s: resuming with %d checkpointed record(s)", a, len(rep.Records))
	}
	if cfg.ArmCheckpoint != nil {
		cfg.ArmCheckpoint(cw)
	}
	// Write the header eagerly: even a shard that dies before its
	// first record — or owns zero jobs — leaves a self-describing
	// checkpoint behind for the merge's identity check.
	if err := cw.WriteHeader(); err != nil {
		return nil, fmt.Errorf("shard %s: %w", a, err)
	}
	// Every append re-checks the fence file, so a worker superseded
	// mid-run is refused at its very next record.
	records := NewFencedWriter(cw, FencePath(cfg.Dir, a), keeper.token)

	// Heartbeats: every finished job, plus an idle ticker so a shard
	// deep inside one long job still proves progress to the lease.
	beatEvery := cfg.BeatEvery
	if beatEvery <= 0 {
		beatEvery = time.Second
	}
	var beatMu sync.Mutex
	lastDone := 0
	beat := func(done int) {
		beatMu.Lock()
		if done >= 0 {
			lastDone = done
		}
		done = lastDone
		beatMu.Unlock()
		beatFn(done, len(only))
	}
	tickCtx, stopTick := context.WithCancel(context.Background())
	defer stopTick()
	go func() {
		t := time.NewTicker(beatEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				beat(-1)
			case <-tickCtx.Done():
				return
			}
		}
	}()

	opts := campaign.Options{
		Runner:  cfg.Runner,
		Records: records,
		Done:    rep.Records,
		Only:    only,
		Drain:   drain,
		Progress: func(done, total int, rec campaign.Record) {
			beat(done)
			if cfg.Progress != nil {
				cfg.Progress(done, total, rec)
			}
		},
	}
	res, err := campaign.Run(ctx, spec, opts)
	if cerr := cw.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if why, fenced := keeper.selfFenced(); fenced && errors.Is(err, campaign.ErrDrained) {
		err = fmt.Errorf("shard %s: self-fenced (%s): %w", a, why, err)
	}
	return res, err
}

// beatTimeout bounds one heartbeat call well under the TTL so a
// failing beat is observed as failing while there is still time to
// react.
func beatTimeout(ttl time.Duration) time.Duration {
	d := ttl / 4
	if d < 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}
