package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	rh "rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/dram"
	"rowhammer/internal/exp"
	"rowhammer/internal/server"
	"rowhammer/internal/shard"
	"rowhammer/internal/store"
)

// layers accumulates what a traced replay observed at each layer
// boundary. Every field is written under mu: jobs finish on engine
// workers and shards run concurrently.
type layers struct {
	mu sync.Mutex

	campaigns int
	jobs      []time.Duration // each job's runner call
	engine    time.Duration   // Σ per-campaign engine wall
	slots     time.Duration   // Σ workers × engine wall
	retries   int

	phaseJobs              int
	setup, survey, measure time.Duration

	appends    int
	appendTime time.Duration

	disturbCalls, firstCalls int64
	disturbTime, firstTime   time.Duration
	acts, flips              int64

	shardedCampaigns, shardAttempts      int
	coordinate, shardRun, startup, merge time.Duration
	respawns                             int

	mergeTime, putTime time.Duration
	artifactBytes      int64

	coreCPU time.Duration // process CPU of the phase pass's probed cores
}

func (l *layers) addPhases(setup, survey, measure, coreCPU time.Duration, p *disturbProbe, st dram.Stats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.phaseJobs++
	l.setup += setup
	l.survey += survey
	l.measure += measure
	l.coreCPU += coreCPU
	l.disturbCalls += p.calls
	l.firstCalls += p.first
	l.disturbTime += p.callTime
	l.firstTime += p.firstTime
	l.acts += st.Acts
	l.flips += st.FlipsInjected
}

// timeJobs wraps the campaign.Runner seam: every job's wall time, and
// onStart (may be nil) before the first job begins.
func (l *layers) timeJobs(r campaign.Runner, onStart func()) campaign.Runner {
	var once sync.Once
	return func(ctx context.Context, spec campaign.Spec, job campaign.Job) (campaign.Record, error) {
		if onStart != nil {
			once.Do(onStart)
		}
		start := time.Now()
		rec, err := r(ctx, spec, job)
		d := time.Since(start)
		l.mu.Lock()
		l.jobs = append(l.jobs, d)
		l.mu.Unlock()
		return rec, err
	}
}

// appendTimer sits under a campaign.CheckpointWriter (its Wrap seam,
// the only way into the writer RunShard builds) and times each record
// line from its write through the fsync the writer issues after it.
type appendTimer struct {
	w      io.Writer
	l      *layers
	start  time.Time
	header bool
}

func (a *appendTimer) Write(p []byte) (int, error) {
	a.start = time.Now()
	a.header = bytes.HasPrefix(p, []byte("#rhckpt"))
	return a.w.Write(p)
}

func (a *appendTimer) Sync() error {
	var err error
	if s, ok := a.w.(interface{ Sync() error }); ok {
		err = s.Sync()
	}
	if !a.start.IsZero() && !a.header {
		d := time.Since(a.start)
		a.l.mu.Lock()
		a.l.appends++
		a.l.appendTime += d
		a.l.mu.Unlock()
	}
	a.start = time.Time{}
	return err
}

// resolved is one campaign of the stream as rhserved resolves it.
type resolved struct {
	raw rh.CampaignSpec
	server.Resolved
}

func resolve(wire server.Spec) (resolved, error) {
	raw, err := wire.CampaignSpec()
	if err != nil {
		return resolved{}, err
	}
	rsv, err := server.Resolve(raw)
	return resolved{raw, rsv}, err
}

// replayed is one campaign's outcome in a replay.
type replayed struct {
	digest  string
	records map[string]campaign.Record
}

// replay runs the first w.replay campaigns of the stream in-process
// through the layers rhserved uses — server.Resolve, the campaign
// engine with the resolved runner on a fsynced v2 checkpoint (or
// shard.Coordinate over in-process RunShard workers), the artifact
// merge and store.Put — and returns their outcomes and the total wall
// time. With l non-nil the calls into those layers are timed and the
// Runner, RecordWriter and SpawnFunc seams wrapped; the job code is
// the program's either way.
func replay(ctx context.Context, w workload, seed uint64, dir string, l *layers) ([]replayed, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	st, _, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	start := time.Now()
	out := make([]replayed, 0, w.replay)
	for i := 0; i < w.replay; i++ {
		r, err := replayCampaign(ctx, w.spec(seed, i), filepath.Join(dir, fmt.Sprintf("c%03d", i)), st, l)
		if err != nil {
			return nil, 0, fmt.Errorf("replay campaign %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, time.Since(start), nil
}

func replayCampaign(ctx context.Context, wire server.Spec, dir string, st *store.Store, l *layers) (replayed, error) {
	rsv, err := resolve(wire)
	if err != nil {
		return replayed{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return replayed{}, err
	}

	var res *campaign.Result
	if wire.Shards > 1 {
		res, err = replaySharded(ctx, rsv.Spec, rsv.Runner, filepath.Join(dir, "shards"), wire.Shards, l)
	} else {
		res, err = replayUnsharded(ctx, rsv.Spec, rsv.Runner, filepath.Join(dir, "ckpt.jsonl"), l)
	}
	if err != nil {
		return replayed{}, err
	}
	retries := 0
	for _, rec := range res.Records {
		if rec.Failed() {
			return replayed{}, fmt.Errorf("job %s failed: %s", rec.Key, rec.Err)
		}
		if rec.Attempts > 1 {
			retries++
		}
	}

	// The deliverable, built as the server's ingest builds it.
	mergeStart := time.Now()
	cs := rsv.Spec
	meta := store.Meta{ID: "c" + cs.IdentityHash(), Kind: cs.Kind, Mfrs: cs.Mfrs, Seed: cs.Seed, Temps: cs.Temps}
	var payload []byte
	if e := rsv.Exp; e != nil {
		a, err := exp.MergeFleet(*e, res.Records)
		if err != nil {
			return replayed{}, err
		}
		if payload, err = a.Encode(); err != nil {
			return replayed{}, err
		}
		meta.Experiment, meta.Schema = e.ID, e.Schema
	} else {
		summary, err := campaign.Aggregate(res).MarshalIndent()
		if err != nil {
			return replayed{}, err
		}
		payload = append(summary, '\n')
	}
	putStart := time.Now()
	if _, err := st.Put(meta, payload); err != nil {
		return replayed{}, err
	}
	if l != nil {
		putEnd := time.Now()
		l.mu.Lock()
		l.campaigns++
		l.retries += retries
		l.mergeTime += putStart.Sub(mergeStart)
		l.putTime += putEnd.Sub(putStart)
		l.artifactBytes += int64(len(payload))
		l.mu.Unlock()
	}
	return replayed{digestOf(payload), res.Records}, nil
}

func replayUnsharded(ctx context.Context, cs campaign.Spec, runner campaign.Runner, ckpt string, l *layers) (*campaign.Result, error) {
	cw, err := campaign.CreateCheckpoint(ckpt, cs)
	if err != nil {
		return nil, err
	}
	defer cw.Close()
	if l != nil {
		runner = l.timeJobs(runner, nil)
		cw.Wrap(func(w io.Writer) io.Writer { return &appendTimer{w: w, l: l} })
	}
	start := time.Now()
	res, err := campaign.Run(ctx, cs, campaign.Options{Runner: runner, Records: cw})
	wall := time.Since(start)
	if cerr := cw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if l != nil {
		l.mu.Lock()
		l.engine += wall
		l.slots += time.Duration(cs.Workers) * wall
		l.mu.Unlock()
	}
	return res, nil
}

// inprocWorker is a RunShard goroutine behind the shard.WorkerHandle
// seam, as rhserved runs in-process shards.
type inprocWorker struct {
	cancel    context.CancelFunc
	drainOnce sync.Once
	drain     chan struct{}
	done      chan struct{}
	err       error
}

func (w *inprocWorker) Wait() error { <-w.done; return w.err }
func (w *inprocWorker) Kill()       { w.cancel() }
func (w *inprocWorker) Drain()      { w.drainOnce.Do(func() { close(w.drain) }) }

// replaySharded runs the campaign under shard.Coordinate with the
// server's in-process placement: the campaign's workers divided among
// n RunShard goroutines, each with its own checkpoint and lease.
func replaySharded(ctx context.Context, cs campaign.Spec, runner campaign.Runner, dir string, n int, l *layers) (*campaign.Result, error) {
	shardSpec := cs
	shardSpec.Workers = max(1, cs.Workers/n)

	var mu sync.Mutex
	var firstSpawn, lastReturn time.Time
	spawn := func(ctx context.Context, a shard.Assignment, gen int) (shard.WorkerHandle, error) {
		spawned := time.Now()
		var started time.Time
		run, arm := runner, func(*campaign.CheckpointWriter) {}
		if l != nil {
			run = l.timeJobs(runner, func() { started = time.Now() })
			arm = func(cw *campaign.CheckpointWriter) {
				cw.Wrap(func(w io.Writer) io.Writer { return &appendTimer{w: w, l: l} })
			}
		}
		wctx, cancel := context.WithCancel(ctx)
		w := &inprocWorker{cancel: cancel, drain: make(chan struct{}), done: make(chan struct{})}
		go func() {
			defer close(w.done)
			defer cancel()
			_, w.err = shard.RunShard(wctx, shard.RunConfig{
				Dir: dir, Assignment: a, Spec: shardSpec, Runner: run, Drain: w.drain, ArmCheckpoint: arm,
			})
			returned := time.Now()
			mu.Lock()
			if firstSpawn.IsZero() || spawned.Before(firstSpawn) {
				firstSpawn = spawned
			}
			if returned.After(lastReturn) {
				lastReturn = returned
			}
			mu.Unlock()
			if l != nil {
				l.mu.Lock()
				l.shardAttempts++
				l.shardRun += returned.Sub(spawned)
				if !started.IsZero() {
					l.startup += started.Sub(spawned)
				}
				if gen > 0 {
					l.respawns++
				}
				l.mu.Unlock()
			}
		}()
		return w, nil
	}

	start := time.Now()
	res, rep, err := shard.Coordinate(ctx, shard.Config{Dir: dir, Spec: cs, Shards: n, Spawn: spawn})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if rep.Failed > 0 {
		return nil, fmt.Errorf("%d of %d jobs failed", rep.Failed, res.Total)
	}
	if l != nil {
		mu.Lock()
		wall := lastReturn.Sub(firstSpawn)
		merge := end.Sub(lastReturn)
		mu.Unlock()
		l.mu.Lock()
		l.shardedCampaigns++
		l.coordinate += end.Sub(start)
		l.merge += merge
		l.engine += wall
		l.slots += time.Duration(n*shardSpec.Workers) * wall
		l.mu.Unlock()
	}
	return res, nil
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
