package shard

import (
	"context"
	"sync"

	"rowhammer/internal/leasesvc"
)

// executor abstracts how one shard attempt runs — the single seam
// between Coordinate's supervision loop and the places an attempt can
// run (local subprocesses, in-process goroutines, remote fleet
// workers). The loop calls every method from one goroutine;
// implementations surface attempt terminations on Events, at most one
// outstanding event per shard.
type executor interface {
	// Start launches generation gen of shard a. Exactly one attempt
	// per shard is in flight at a time; the loop never Starts a shard
	// again before consuming its previous attempt's exit event.
	Start(ctx context.Context, a Assignment, gen int) error
	// Kill stops shard a's attempt immediately; its termination
	// surfaces on Events.
	Kill(a Assignment)
	// Drain asks shard a's attempt to stop gracefully — finish
	// in-flight jobs, checkpoint, release — eventually surfacing on
	// Events.
	Drain(a Assignment)
	// Tick lets the executor observe the world, on every lease or
	// placement change and on the coordinator's poll tick; fleet
	// placement watches leases and registrations here and may
	// synthesize exit events.
	Tick()
	// Events delivers attempt terminations.
	Events() <-chan exitEvent
	// Close stops every attempt; for local attempts it also waits for
	// them to finish stopping, so checkpoints are quiescent when
	// Coordinate returns.
	Close()
}

// localExecutor runs attempts through a SpawnFunc — exec'd rhfleet
// subprocesses or in-process goroutines; it does not care which. When
// an attempt exits it frees whatever shard lease the attempt still
// holds: the process is gone, so nobody can be fenced by the release,
// and the successor acquires at once instead of waiting out a TTL —
// a SIGKILLed child hands over as fast as a kernel-dropped lock would.
type localExecutor struct {
	spawn SpawnFunc
	svc   *leasesvc.Service
	hash  string

	events chan exitEvent

	mu      sync.Mutex
	handles map[int]WorkerHandle
}

func newLocalExecutor(spawn SpawnFunc, svc *leasesvc.Service, hash string, shards int) *localExecutor {
	return &localExecutor{
		spawn: spawn, svc: svc, hash: hash,
		events:  make(chan exitEvent, shards),
		handles: make(map[int]WorkerHandle, shards),
	}
}

func (e *localExecutor) Start(ctx context.Context, a Assignment, gen int) error {
	h, err := e.spawn(ctx, a, gen)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.handles[a.Index] = h
	e.mu.Unlock()
	go func() {
		werr := h.Wait()
		e.release(a)
		e.mu.Lock()
		delete(e.handles, a.Index)
		e.mu.Unlock()
		e.events <- exitEvent{idx: a.Index, gen: gen, err: werr}
	}()
	return nil
}

// release frees shard a's lease at its current token. The attempt has
// exited and the loop starts no successor before consuming its exit
// event, so the current token can only be this attempt's (or an
// older, already released one, for which Release is a no-op).
func (e *localExecutor) release(a Assignment) {
	ctx := context.Background()
	key := leasesvc.Key{Campaign: e.hash, Shard: a.Index, Of: a.Of}
	if v, ok, err := e.svc.View(ctx, key); err == nil && ok {
		e.svc.Release(ctx, key, v.Token)
	}
}

func (e *localExecutor) Kill(a Assignment) {
	e.mu.Lock()
	h := e.handles[a.Index]
	e.mu.Unlock()
	if h != nil {
		h.Kill()
	}
}

func (e *localExecutor) Drain(a Assignment) {
	e.mu.Lock()
	h := e.handles[a.Index]
	e.mu.Unlock()
	if h == nil {
		return
	}
	if d, ok := h.(DrainableWorker); ok {
		d.Drain()
	} else {
		h.Kill()
	}
}

// Tick has nothing to observe: a local attempt's end surfaces through
// its exit, and stalls are judged by the coordinator from the lease.
func (e *localExecutor) Tick() {}

func (e *localExecutor) Events() <-chan exitEvent { return e.events }

func (e *localExecutor) Close() {
	e.mu.Lock()
	n := len(e.handles)
	for _, h := range e.handles {
		h.Kill()
	}
	e.mu.Unlock()
	for i := 0; i < n; i++ {
		<-e.events
	}
}
