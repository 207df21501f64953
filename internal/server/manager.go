package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/durable"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
	"rowhammer/internal/store"
)

// Campaign states. Queued, running and drained are non-terminal:
// after a restart the manager re-enqueues them and the engine resumes
// from the campaign's v2 checkpoint. Done and failed are terminal and
// persisted, so restarts serve them without re-running anything.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDrained = "drained"
	StateDone    = "done"
	StateFailed  = "failed"
)

// ErrDraining is returned by Submit once graceful shutdown has begun.
var ErrDraining = errors.New("server: draining; not accepting new campaigns")

// QueueFullError is returned by Submit when the FIFO queue is at
// ManagerConfig.MaxQueued — the backpressure signal the HTTP layer
// turns into 429 + Retry-After.
type QueueFullError struct {
	// Queued is the current queue depth; Max the configured bound.
	Queued, Max int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("server: submit queue full (%d queued, max %d); retry later", e.Queued, e.Max)
}

// Status is one campaign's externally visible state — the GET
// /v1/campaigns/{id} body and the SSE event payload.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Kind is the resolved engine kind (exp:fig5, ber, ...).
	Kind string `json:"kind"`
	// Done / Total / Failed count jobs; Done includes jobs adopted
	// from a resume checkpoint.
	Done   int `json:"done"`
	Total  int `json:"total"`
	Failed int `json:"failed"`
	// Error describes a terminal failure.
	Error string `json:"error,omitempty"`
	// ArtifactID names the stored artifact once the campaign is done.
	ArtifactID string `json:"artifact_id,omitempty"`
}

// Terminal reports whether the state can no longer change.
func (s Status) Terminal() bool { return s.State == StateDone || s.State == StateFailed }

// runState is one campaign under management.
type runState struct {
	id       string
	wire     Spec
	resolved Resolved
	dir      string

	mu     sync.Mutex
	status Status
	subs   map[chan Status]struct{}
	closed bool // terminal published; subscriber channels closed
}

// ManagerConfig sizes the manager.
type ManagerConfig struct {
	// MaxActive bounds concurrently running campaigns (<1 = 1);
	// further submissions queue FIFO.
	MaxActive int
	// MaxQueued bounds the FIFO queue (0 = unbounded): when the queue
	// is full, Submit returns *QueueFullError instead of enqueueing.
	MaxQueued int
	// WorkerBudget caps each campaign's worker pool (0 = no cap) so
	// concurrent campaigns cannot oversubscribe the machine.
	WorkerBudget int
	// Fleet is the daemon's lease service and worker registry; nil
	// selects a private in-memory one. Every sharded campaign is placed
	// across the workers registered with it: the manager's own
	// in-process member (LocalWorkerID, MaxActive × WorkerBudget slots,
	// or MaxActive × GOMAXPROCS without a budget) and any rhfleet
	// -worker processes that joined over HTTP. The local member means
	// the fleet is never empty.
	Fleet *leasesvc.Service
	// Log, when non-nil, receives one-line progress messages. It is
	// called concurrently: from every running campaign and from the
	// manager's fleet member.
	Log func(format string, args ...any)
}

// LocalWorkerID is the worker-registry ID of the manager's own fleet
// member.
const LocalWorkerID = "rhserved"

// Manager schedules campaigns over the engine and publishes results
// into the artifact store. All methods are safe for concurrent use.
type Manager struct {
	store *store.Store
	cfg   ManagerConfig

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	runs     map[string]*runState
	queue    []string // FIFO of queued campaign IDs
	active   int
	draining bool
	drainCh  chan struct{}
}

// NewManager builds a manager over an open store, registers its own
// member with the fleet, and recovers any campaigns persisted under
// the store: terminal campaigns are served from their status files;
// interrupted ones (queued, running or drained at the time of the
// crash or shutdown) are re-enqueued and resume from their v2
// checkpoints.
func NewManager(st *store.Store, cfg ManagerConfig) (*Manager, error) {
	if cfg.MaxActive < 1 {
		cfg.MaxActive = 1
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	if cfg.Fleet == nil {
		cfg.Fleet = leasesvc.NewService(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		store:   st,
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		runs:    make(map[string]*runState),
		drainCh: make(chan struct{}),
	}
	if err := m.join(); err != nil {
		m.Close()
		return nil, err
	}
	if err := m.recover(); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// join starts the manager's own fleet member and returns once it is
// registered, so no campaign — a recovered one included — is ever
// placed onto a fleet the member has not joined yet. The member runs
// until the manager drains or closes.
func (m *Manager) join() error {
	per := m.cfg.WorkerBudget
	if per < 1 {
		per = runtime.GOMAXPROCS(0)
	}
	reg := &joinSignal{Service: m.cfg.Fleet, joined: make(chan struct{})}
	exited := make(chan error, 1)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		exited <- shard.RunWorker(m.ctx, shard.WorkerConfig{
			Registry: reg,
			ID:       LocalWorkerID,
			Slots:    m.cfg.MaxActive * per,
			TTL:      m.cfg.Fleet.DefaultLeaseTTL(),
			Run:      m.runPlacement,
			Drain:    m.drainCh,
			Log:      m.cfg.Log,
		})
	}()
	select {
	case <-reg.joined:
		return nil
	case err := <-exited:
		return fmt.Errorf("server: local fleet member: %w", err)
	}
}

// joinSignal is the fleet service as the local member sees it, plus a
// signal closed by the member's first successful registration.
type joinSignal struct {
	*leasesvc.Service
	once   sync.Once
	joined chan struct{}
}

func (j *joinSignal) RegisterWorker(ctx context.Context, id, owner string, slots int, ttl time.Duration) (leasesvc.Grant, error) {
	g, err := j.Service.RegisterWorker(ctx, id, owner, slots, ttl)
	if err == nil {
		j.once.Do(func() { close(j.joined) })
	}
	return g, err
}

// runPlacement runs one shard placed on the local member — the same
// resolve-and-run every rhfleet -worker performs.
func (m *Manager) runPlacement(ctx context.Context, p leasesvc.Placement, drain <-chan struct{}) error {
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
		// Beat on the registry's cadence, well inside the lease TTL
		// however short -lease-ttl is.
		BeatEvery: m.cfg.Fleet.DefaultLeaseTTL() / 4,
		Lease:     m.cfg.Fleet,
		Owner:     LocalWorkerID,
	})
	return err
}

func (m *Manager) campaignsDir() string { return filepath.Join(m.store.Dir(), "campaigns") }

// recover reloads persisted campaigns after a restart.
func (m *Manager) recover() error {
	dir := m.campaignsDir()
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: recover: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		wire, err := ReadSpec(filepath.Join(dir, id, "spec.json"))
		if err != nil {
			m.cfg.Log("recover: %s: unreadable spec, skipping: %v", id, err)
			continue
		}
		r, err := m.newRun(wire)
		if err != nil {
			m.cfg.Log("recover: %s: spec no longer resolves, skipping: %v", id, err)
			continue
		}
		if r.id != id {
			m.cfg.Log("recover: %s: spec hashes to %s, skipping", id, r.id)
			continue
		}
		if st, ok := loadTerminalStatus(filepath.Join(dir, id, "status.json")); ok {
			r.status = st
			r.closed = true
			m.runs[id] = r
			continue
		}
		m.runs[id] = r
		m.queue = append(m.queue, id)
		m.cfg.Log("recover: %s re-enqueued (will resume from checkpoint)", id)
	}
	m.schedule()
	return nil
}

// loadTerminalStatus reads a persisted status file; ok only when it
// decodes to a terminal state.
func loadTerminalStatus(path string) (Status, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Status{}, false
	}
	var st Status
	if json.Unmarshal(b, &st) != nil || !st.Terminal() {
		return Status{}, false
	}
	return st, true
}

// newRun resolves a wire spec into a managed run. The campaign ID is
// derived from the engine spec's identity hash, so resubmitting the
// same spec names the same campaign (idempotent submits) and a spec
// directory always matches its content.
func (m *Manager) newRun(wire Spec) (*runState, error) {
	if m.cfg.WorkerBudget > 0 && (wire.Workers < 1 || wire.Workers > m.cfg.WorkerBudget) {
		wire.Workers = m.cfg.WorkerBudget
	}
	raw, err := wire.CampaignSpec()
	if err != nil {
		return nil, err
	}
	rsv, err := Resolve(raw)
	if err != nil {
		return nil, err
	}
	id := "c" + rsv.Spec.IdentityHash()
	return &runState{
		id:       id,
		wire:     wire,
		resolved: rsv,
		dir:      filepath.Join(m.campaignsDir(), id),
		status: Status{
			ID:    id,
			State: StateQueued,
			Kind:  rsv.Spec.Kind,
			Total: len(campaign.Expand(rsv.Spec)),
		},
		subs: make(map[chan Status]struct{}),
	}, nil
}

// Submit enqueues a campaign. Submitting a spec that hashes to an
// existing campaign returns that campaign's status with existing set
// — a completed campaign is never re-run, and a queued or running one
// is never duplicated.
func (m *Manager) Submit(wire Spec) (Status, bool, error) {
	r, err := m.newRun(wire)
	if err != nil {
		return Status{}, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.runs[r.id]; ok {
		return prev.snapshot(), true, nil
	}
	if m.draining {
		return Status{}, false, ErrDraining
	}
	if m.cfg.MaxQueued > 0 && len(m.queue) >= m.cfg.MaxQueued {
		return Status{}, false, &QueueFullError{Queued: len(m.queue), Max: m.cfg.MaxQueued}
	}
	// Persist the spec before acknowledging: a crash after Submit
	// returns must be able to re-enqueue the campaign.
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return Status{}, false, fmt.Errorf("server: %w", err)
	}
	specBytes, err := json.MarshalIndent(r.wire, "", "  ")
	if err != nil {
		return Status{}, false, err
	}
	if err := durable.AtomicWriteFile(filepath.Join(r.dir, "spec.json"), append(specBytes, '\n'), 0o644); err != nil {
		return Status{}, false, err
	}
	m.runs[r.id] = r
	m.queue = append(m.queue, r.id)
	m.schedule()
	return r.snapshot(), false, nil
}

// schedule starts queued campaigns while capacity allows. Caller
// holds m.mu.
func (m *Manager) schedule() {
	for m.active < m.cfg.MaxActive && len(m.queue) > 0 && !m.draining {
		id := m.queue[0]
		m.queue = m.queue[1:]
		r, ok := m.runs[id]
		if !ok {
			continue
		}
		m.active++
		m.wg.Add(1)
		go m.runCampaign(r)
	}
}

// Status returns one campaign's status.
func (m *Manager) Status(id string) (Status, bool) {
	m.mu.Lock()
	r, ok := m.runs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return r.snapshot(), true
}

// Statuses returns every campaign's status, sorted by ID.
func (m *Manager) Statuses() []Status {
	m.mu.Lock()
	runs := make([]*runState, 0, len(m.runs))
	for _, r := range m.runs {
		runs = append(runs, r)
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Subscribe returns a channel of status snapshots for one campaign:
// the current status immediately, then one per change. The channel is
// closed after the terminal status (or immediately after the snapshot
// when the campaign is already terminal). Call cancel to unsubscribe.
func (m *Manager) Subscribe(id string) (<-chan Status, func(), bool) {
	m.mu.Lock()
	r, ok := m.runs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	ch := make(chan Status, 16)
	r.mu.Lock()
	ch <- r.status
	if r.closed {
		close(ch)
		r.mu.Unlock()
		return ch, func() {}, true
	}
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	cancel := func() {
		r.mu.Lock()
		if _, live := r.subs[ch]; live {
			delete(r.subs, ch)
			close(ch)
		}
		r.mu.Unlock()
	}
	return ch, cancel, true
}

// snapshot returns the current status under the run's lock.
func (r *runState) snapshot() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// update mutates the status under the run's lock and, when that
// changed it, publishes the new snapshot to subscribers — a caller
// may report the same progress many times (the fleet scheduler does
// on every wake-up) without each report becoming an event. Slow
// subscribers miss intermediate snapshots (newest-wins, non-blocking)
// but never the terminal one: when the status is terminal the
// channels are drained and closed after the final send.
func (r *runState) update(f func(*Status)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	before := r.status
	f(&r.status)
	if r.status == before {
		return
	}
	for ch := range r.subs {
		select {
		case ch <- r.status:
		default:
			// Full buffer: drop the oldest pending snapshot so the
			// latest always lands.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- r.status:
			default:
			}
		}
	}
	if r.status.Terminal() {
		for ch := range r.subs {
			delete(r.subs, ch)
			close(ch)
		}
		r.closed = true
	}
}

// runCampaign executes one campaign: create or resume its v2
// checkpoint, run the engine under the manager's drain signal, and on
// success publish the deliverable artifact into the store.
func (m *Manager) runCampaign(r *runState) {
	defer m.wg.Done()
	defer func() {
		m.mu.Lock()
		m.active--
		m.schedule()
		m.mu.Unlock()
	}()

	err := m.execute(r)
	switch {
	case err == nil:
	case errors.Is(err, campaign.ErrDrained) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Interrupted, not failed: the checkpoint is flushed and the
		// campaign resumes on the next startup (or explicit resubmit
		// after drain is lifted — same ID, same checkpoint).
		m.cfg.Log("campaign %s drained; resumable from checkpoint", r.id)
		r.update(func(s *Status) { s.State = StateDrained })
	default:
		m.cfg.Log("campaign %s failed: %v", r.id, err)
		m.settle(r, func(s *Status) { s.State = StateFailed; s.Error = err.Error() })
	}
}

// execute is the fallible body of runCampaign.
func (m *Manager) execute(r *runState) error {
	if n := r.wire.Shards; n > 1 {
		return m.executeSharded(r, n)
	}
	cs := r.resolved.Spec
	ckpt := filepath.Join(r.dir, "ckpt.jsonl")

	cw, rep, err := campaign.OpenCheckpoint(ckpt, cs, 0, 0)
	if err != nil {
		return fmt.Errorf("resume %s: %w", ckpt, err)
	}
	defer cw.Close()
	if len(rep.Records) > 0 {
		m.cfg.Log("campaign %s resuming with %d checkpointed records", r.id, len(rep.Records))
	}

	r.update(func(s *Status) { s.State = StateRunning })
	opts := campaign.Options{
		Runner:  r.resolved.Runner,
		Records: cw,
		Done:    rep.Records,
		Drain:   m.drainCh,
		Progress: func(jobsDone, total int, rec campaign.Record) {
			r.update(func(s *Status) {
				s.Done, s.Total = jobsDone, total
				if rec.Failed() {
					s.Failed++
				}
			})
		},
	}
	res, err := campaign.Run(m.ctx, cs, opts)
	if cerr := cw.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("campaign %s: %d of %d jobs failed", r.id, res.Failed, res.Jobs())
	}
	return m.finish(r, res)
}

// finish publishes a complete, failure-free result and marks the
// campaign done.
func (m *Manager) finish(r *runState, res *campaign.Result) error {
	meta, err := m.ingest(r, res)
	if err != nil {
		return fmt.Errorf("campaign %s: publishing artifact: %w", r.id, err)
	}
	m.cfg.Log("campaign %s done: artifact %s (%d bytes)", r.id, meta.ID, meta.Bytes)
	m.settle(r, func(s *Status) { s.State = StateDone; s.ArtifactID = meta.ID })
	return nil
}

// executeSharded places one campaign's shards across the fleet: the
// wire spec is persisted into the shard directory for members to
// resolve, and the coordinator places shards onto registered workers
// — the local member and any rhfleet -worker processes alike — under
// fenced leases, each with its own checkpoint under <campaign>/shards.
// The directory and file formats are the ones `rhfleet -coordinate`
// uses, so both supervision paths share one on-disk truth and one
// merge, and the merged result ingests byte-identical to an unsharded
// run.
func (m *Manager) executeSharded(r *runState, n int) error {
	cs := r.resolved.Spec
	dir, err := filepath.Abs(filepath.Join(r.dir, "shards"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Persist the spec in the server wire schema — the same file a
	// `rhfleet -coordinate` run writes for its workers, and the same
	// schema POST /v1/campaigns accepts — with the campaign's worker
	// budget divided among the shards. Identity ignores Workers.
	wireShard := r.wire
	wireShard.Workers = max(1, cs.Workers/n)
	wb, err := json.MarshalIndent(wireShard, "", "  ")
	if err != nil {
		return err
	}
	if err := durable.AtomicWriteFile(shard.SpecPath(dir), append(wb, '\n'), 0o644); err != nil {
		return err
	}

	m.cfg.Log("campaign %s: fanning %d shard(s) out across the fleet", r.id, n)
	r.update(func(s *Status) { s.State = StateRunning })
	res, rep, err := shard.Coordinate(m.ctx, shard.Config{
		Dir:    dir,
		Spec:   cs,
		Shards: n,
		Leases: m.cfg.Fleet,
		Drain:  m.drainCh,
		Progress: func(done, total int) {
			r.update(func(s *Status) { s.Done, s.Total = done, total })
		},
		Log: func(f string, args ...any) { m.cfg.Log("campaign "+r.id+": "+f, args...) },
	})
	if err != nil {
		return err
	}
	// Lease progress carries only done/total; the merge knows which
	// records failed.
	r.update(func(s *Status) { s.Done, s.Failed = rep.Records, rep.Failed })
	if rep.Failed > 0 {
		return fmt.Errorf("campaign %s: %d of %d jobs failed", r.id, rep.Failed, res.Total)
	}
	return m.finish(r, res)
}

// ingest publishes the campaign's deliverable (Resolved.Deliverable)
// into the store: experiment kinds store the merged artifact as json,
// bit-identical to `rhchar -format json` and `rhfleet -artifact`;
// measurement kinds store the fleet summary, bit-identical to
// `rhfleet -summary`.
func (m *Manager) ingest(r *runState, res *campaign.Result) (store.Meta, error) {
	payload, err := r.resolved.Deliverable(res, "json")
	if err != nil {
		return store.Meta{}, err
	}
	cs := r.resolved.Spec
	meta := store.Meta{
		ID:    r.id,
		Kind:  cs.Kind,
		Mfrs:  cs.Mfrs,
		Seed:  cs.Seed,
		Temps: cs.Temps,
	}
	if e := r.resolved.Exp; e != nil {
		meta.Experiment = e.ID
		meta.Schema = e.Schema
	}
	return m.store.Put(meta, payload)
}

// settle applies a terminal transition: the terminal status is
// written to status.json first and published to subscribers second —
// durable before acknowledged, as Submit does for the spec — so a
// client that saw the terminal event can rely on a restart serving it.
func (m *Manager) settle(r *runState, f func(*Status)) {
	st := r.snapshot()
	f(&st)
	b, err := json.MarshalIndent(st, "", "  ")
	if err == nil {
		err = durable.AtomicWriteFile(filepath.Join(r.dir, "status.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		m.cfg.Log("campaign %s: persisting status: %v", r.id, err)
	}
	r.update(f)
}

// Draining reports whether graceful shutdown has begun — the health
// endpoint's signal to tell load balancers to stop routing here.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain begins graceful shutdown: no new campaigns are accepted or
// started, running engines stop dispatching and finish their
// in-flight jobs, and Drain returns when every campaign goroutine has
// exited or ctx expires (the caller then escalates to Close). Queued
// and drained campaigns stay on disk and resume at the next startup.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.drainCh)
	}
	m.mu.Unlock()
	doneCh := make(chan struct{})
	go func() { m.wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close aborts hard: running campaigns are cancelled mid-job (their
// checkpoints keep every finished record) and Close returns once all
// campaign goroutines exit.
func (m *Manager) Close() {
	m.cancel()
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.drainCh)
	}
	m.mu.Unlock()
	m.wg.Wait()
}
