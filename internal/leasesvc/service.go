// Package leasesvc implements the shard lease service: the one way a
// shard of an internal/shard campaign is owned, whether its worker is
// a goroutine, a child process or a process on another host. No
// kernel can revoke a remote worker's lock, so ownership is a leased,
// fenced agreement:
//
//   - Acquire grants a shard lease keyed by (campaign identity hash,
//     shard, of) and mints a monotonically increasing fencing token.
//     Every successor holds a strictly larger token than every
//     predecessor, which is what lets the checkpoint layer reject a
//     partitioned zombie's late appends.
//   - Beat is the holder's heartbeat. Staleness is judged by Seq
//     monotonicity on the service's own clock: a lease expires only
//     when its heartbeat sequence number stops advancing for TTL —
//     never by comparing worker wall clocks, so a clock-skewed host
//     whose Seq is advancing is alive by definition.
//   - Release ends the lease early; a stale token's release is a
//     harmless no-op (it must never free a successor's lease).
//
// The Service is pure in-memory state behind one mutex — leases are
// an availability mechanism, not a durability one. All durability
// lives in the per-shard v2 checkpoints plus their fence files; if
// the service restarts, workers fail their heartbeats, self-fence,
// and the coordinator reassigns from the checkpoints on disk exactly
// as if the workers had died.
package leasesvc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Default lease parameters; callers usually override TTL from the
// coordinator's -lease-ttl.
const (
	DefaultTTL = 15 * time.Second
)

// staleStateFactor bounds, in TTLs, how long dead state outlives its
// last heartbeat. A lease unheld for longer has its done/total reset
// on the next Acquire: progress deliberately survives fencing
// handovers (a successor resumes the predecessor's checkpoint within
// a TTL or two), but a re-run of the same spec against a long-lived
// service — fresh shard directory, wiped store — must not start with
// the prior run's final counters and look near-complete to Progress
// and the placement scheduler. Worker registrations dead for the same
// bound are garbage-collected outright (registry.go).
const staleStateFactor = 10

// Sentinel errors of the lease protocol. The HTTP layer maps them to
// status codes and back, so errors.Is works identically against an
// in-process Service and a remote Client.
var (
	// ErrHeld reports a live lease: acquisition refused because the
	// current holder's Seq advanced within TTL.
	ErrHeld = errors.New("leasesvc: lease held")
	// ErrFenced reports a stale fencing token: the caller has been
	// superseded by a later acquisition and must stop writing.
	ErrFenced = errors.New("leasesvc: fencing token superseded")
	// ErrUnknown reports an operation on a lease that was never
	// acquired from this service.
	ErrUnknown = errors.New("leasesvc: unknown lease")
)

// Key identifies one shard lease: the campaign identity hash (already
// covering kind/fleet/seed/temps/fingerprint) plus the shard's slot
// in the partition. Two campaigns never collide, and neither do two
// different partition widths of the same campaign.
type Key struct {
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Of       int    `json:"of"`
}

// Validate rejects structurally impossible keys before they can pin
// garbage state into the lease table.
func (k Key) Validate() error {
	if k.Campaign == "" {
		return fmt.Errorf("leasesvc: key has empty campaign hash")
	}
	if k.Of < 1 || k.Shard < 0 || k.Shard >= k.Of {
		return fmt.Errorf("leasesvc: key has impossible shard %d/%d", k.Shard, k.Of)
	}
	return nil
}

func (k Key) String() string { return fmt.Sprintf("%s/%d-of-%d", k.Campaign, k.Shard, k.Of) }

// Grant is a successful acquisition: the minted fencing token and the
// TTL the service will actually enforce.
type Grant struct {
	Token uint64        `json:"token"`
	TTL   time.Duration `json:"ttl"`
}

// Beat is one heartbeat payload. Seq must be strictly increasing per
// grant — the service advances its staleness clock only on a Seq it
// has not seen, so replayed or frozen heartbeats age the lease out.
type Beat struct {
	Seq   uint64 `json:"seq"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// View is the observable state of one lease — what a coordinator
// probes to learn remote-shard liveness.
type View struct {
	Key
	// Held reports an unexpired holder at observation time.
	Held bool `json:"held"`
	// Token is the high-water fencing token minted so far.
	Token uint64 `json:"token"`
	// Owner labels the last holder (host:pid), diagnostics only.
	Owner string `json:"owner,omitempty"`
	// Seq/Done/Total mirror the last heartbeat.
	Seq   uint64 `json:"seq"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// SinceAdvance is how long ago, on the service's clock, Seq last
	// advanced (or the lease was acquired). The staleness clock.
	SinceAdvance time.Duration `json:"since_advance_ms"`
	// TTL is the expiry the service enforces for this lease.
	TTL time.Duration `json:"ttl_ms"`
}

// API is the lease protocol as both sides of the wire implement it:
// *Service in process, *Client over HTTP. internal/shard programs
// against this, so tests exercise the exact worker logic with no
// network and the binaries run it over loopback or a real fleet.
type API interface {
	Acquire(ctx context.Context, key Key, owner string, ttl time.Duration) (Grant, error)
	Beat(ctx context.Context, key Key, token uint64, b Beat) error
	Release(ctx context.Context, key Key, token uint64) error
	View(ctx context.Context, key Key) (View, bool, error)
}

// state is one lease's record. token only ever increases — that is
// the entire fencing guarantee.
type state struct {
	token       uint64
	held        bool
	owner       string
	ttl         time.Duration
	seq         uint64
	done, total int
	lastAdvance time.Time // service-clock time Seq last advanced
}

// Service is the in-memory lease table plus the worker registry
// (registry.go) and the operational counters both expose.
type Service struct {
	mu      sync.Mutex
	leases  map[Key]*state
	workers map[string]*workerState
	ttl     time.Duration
	now     func() time.Time
	stats   Stats
	// changed is closed and replaced on every lease or placement change.
	changed chan struct{}
}

// Stats are the service's operational counters — the handover-churn
// dashboard drills and operators read from GET /v1/stats. Counters
// only ever increase; WorkersRegistered is a live gauge.
type Stats struct {
	// LeaseAcquires counts granted lease acquisitions (every fencing
	// token minted), refusals excluded.
	LeaseAcquires uint64 `json:"lease_acquires"`
	// LeaseBeats counts accepted lease heartbeats.
	LeaseBeats uint64 `json:"lease_beats"`
	// FencedRejections counts beats — lease or worker — refused with
	// ErrFenced: each one is a superseded writer being told to stop.
	FencedRejections uint64 `json:"fenced_rejections"`
	// WorkerBeats counts accepted worker-registry heartbeats.
	WorkerBeats uint64 `json:"worker_beats"`
	// WorkersRegistered gauges currently live registered workers.
	WorkersRegistered int `json:"workers_registered"`
}

// StatsSnapshot returns the current counters; the gauge is computed
// against the service clock at call time.
func (s *Service) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.WorkersRegistered = 0
	for _, w := range s.workers {
		if w.registered && !s.workerExpired(w) {
			st.WorkersRegistered++
		}
	}
	return st
}

// DefaultLeaseTTL reports the TTL used when acquirers pass 0 — the
// value a colocated scheduler should supervise with.
func (s *Service) DefaultLeaseTTL() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ttl
}

// NewService builds a lease service whose default TTL (used when an
// acquirer passes 0) is defaultTTL, or DefaultTTL when <= 0.
func NewService(defaultTTL time.Duration) *Service {
	if defaultTTL <= 0 {
		defaultTTL = DefaultTTL
	}
	return &Service{leases: map[Key]*state{}, workers: map[string]*workerState{}, ttl: defaultTTL, now: time.Now, changed: make(chan struct{})}
}

// Changed returns a channel that is closed at the next change to a
// lease or a placement: a granted Acquire, an accepted Beat or
// Release, and an Assign or Unassign that alters a worker's
// assignments. Worker registrations and worker heartbeats never close
// it, so a worker that wakes on it to beat cannot wake itself. Each
// close is followed by a fresh channel; take it before reading the
// state it guards, so no change between the read and the next wait is
// missed.
func (s *Service) Changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.changed
}

// notifyLocked wakes every Changed waiter. Caller holds s.mu.
func (s *Service) notifyLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// SetNow replaces the service clock — the test seam for expiry
// without real sleeping. Not for production use.
func (s *Service) SetNow(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// expired reports whether st's heartbeat Seq has been frozen past its
// TTL, judged entirely on the service's clock. Caller holds s.mu.
func (s *Service) expired(st *state) bool {
	return s.now().Sub(st.lastAdvance) > st.ttl
}

// HeldError decorates ErrHeld with the live holder, so a refused
// acquirer can log who owns the shard.
type HeldError struct {
	Key   Key
	Owner string
	Seq   uint64
}

func (e *HeldError) Error() string {
	return fmt.Sprintf("leasesvc: lease %s held by %s (seq %d)", e.Key, e.Owner, e.Seq)
}

func (e *HeldError) Unwrap() error { return ErrHeld }

// Acquire grants the lease if it is free or its holder's heartbeat
// has gone stale, minting the next fencing token. A refused acquire
// returns an error wrapping ErrHeld; callers poll until the holder
// either releases or expires.
func (s *Service) Acquire(_ context.Context, key Key, owner string, ttl time.Duration) (Grant, error) {
	if err := key.Validate(); err != nil {
		return Grant{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ttl <= 0 {
		ttl = s.ttl
	}
	st := s.leases[key]
	if st == nil {
		st = &state{}
		s.leases[key] = st
	}
	if st.held && !s.expired(st) {
		return Grant{}, &HeldError{Key: key, Owner: st.owner, Seq: st.seq}
	}
	// done/total survive a handover: a successor resumes from the
	// predecessor's checkpoint, so the shard's progress is monotone
	// across fencing-token changes — and the placement scheduler reads
	// it off GET /v1/leases as its throughput signal. Resetting on
	// every acquire would make each reassignment look like lost work.
	// But an acquisition long after the lease went quiet is a fresh
	// run, not a handover; its progress starts from zero. The token is
	// never reset — on-disk fence files depend on its monotonicity.
	if st.token > 0 && s.now().Sub(st.lastAdvance) > staleStateFactor*st.ttl {
		st.done, st.total = 0, 0
	}
	st.token++
	st.held = true
	st.owner = owner
	st.ttl = ttl
	st.seq = 0
	st.lastAdvance = s.now()
	s.stats.LeaseAcquires++
	s.notifyLocked()
	return Grant{Token: st.token, TTL: ttl}, nil
}

// Beat records a heartbeat under token. A token below the high-water
// mark gets ErrFenced — the holder has been superseded and must stop.
// The staleness clock advances only when b.Seq strictly exceeds the
// last recorded Seq; a wedged worker replaying one Seq forever is
// indistinguishable from silence and ages out.
func (s *Service) Beat(_ context.Context, key Key, token uint64, b Beat) error {
	if err := key.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.leases[key]
	if st == nil || token > st.token {
		return fmt.Errorf("%w: %s", ErrUnknown, key)
	}
	if token < st.token {
		s.stats.FencedRejections++
		return fmt.Errorf("%w: lease %s token %d < %d", ErrFenced, key, token, st.token)
	}
	// The current token beating revives a lease the service had
	// written off as expired — as long as no successor acquired it in
	// between, the slow heartbeat proves the holder is still the
	// legitimate owner.
	st.held = true
	if b.Seq > st.seq {
		st.seq = b.Seq
		st.lastAdvance = s.now()
	}
	// Done is monotone: a successor's first beats replay the resumed
	// checkpoint count, which can never be below what the predecessor
	// reported for records that actually landed — but a beat raced
	// from before a handover must not drag the published progress
	// backwards either.
	if b.Done > st.done {
		st.done = b.Done
	}
	if b.Total > 0 {
		st.total = b.Total
	}
	s.stats.LeaseBeats++
	s.notifyLocked()
	return nil
}

// Release ends the lease held under token. Releasing with a stale
// token is a no-op success: the zombie's release must never free the
// successor's lease. Releasing a never-acquired lease is ErrUnknown.
func (s *Service) Release(_ context.Context, key Key, token uint64) error {
	if err := key.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.leases[key]
	if st == nil || token > st.token {
		return fmt.Errorf("%w: %s", ErrUnknown, key)
	}
	if token == st.token && st.held {
		st.held = false
		// Backdate the staleness clock so the next Acquire succeeds
		// immediately instead of waiting out a TTL that no longer
		// protects anyone.
		st.lastAdvance = s.now().Add(-st.ttl - time.Second)
		s.notifyLocked()
	}
	return nil
}

// RaiseFloor lifts key's fencing-token high-water mark to at least
// token without granting anything, so the next Acquire mints a token
// above it. A coordinator seeds each shard's floor from the fence
// file already on disk before its first start: a fresh service would
// otherwise mint tokens at or below that fence, fencing every new
// attempt or handing a successor its orphaned predecessor's token.
// In-process only; the wire protocol has no counterpart.
func (s *Service) RaiseFloor(key Key, token uint64) error {
	if err := key.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.leases[key]
	if st == nil {
		st = &state{}
		s.leases[key] = st
	}
	if token > st.token {
		st.token = token
	}
	return nil
}

// Forget drops every lease entry of campaign — what a coordinator does
// once the campaign's merge is complete, so a long-lived service does
// not keep a finished campaign's entries (and list them on GET
// /v1/leases) for its whole lifetime. Dropping the token high-water
// marks is safe because they live on in the shards' fence files: a
// rerun re-seeds them with RaiseFloor, a fresh Acquire below a fence
// cannot append, and a late Beat or Release on a dropped key gets
// ErrUnknown, which a shard worker treats as fenced. In-process only;
// the wire protocol has no counterpart.
func (s *Service) Forget(campaign string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.leases {
		if k.Campaign == campaign {
			delete(s.leases, k)
		}
	}
}

// View reports the lease's observable state; ok is false when the
// lease was never acquired.
func (s *Service) View(_ context.Context, key Key) (View, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.leases[key]
	if st == nil {
		return View{Key: key}, false, nil
	}
	return s.view(key, st), true, nil
}

// List snapshots every lease, for the GET /v1/leases index.
func (s *Service) List() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.leases))
	for k, st := range s.leases {
		out = append(out, s.view(k, st))
	}
	return out
}

// view renders one lease. Caller holds s.mu.
func (s *Service) view(key Key, st *state) View {
	return View{
		Key:          key,
		Held:         st.held && !s.expired(st),
		Token:        st.token,
		Owner:        st.owner,
		Seq:          st.seq,
		Done:         st.done,
		Total:        st.total,
		SinceAdvance: s.now().Sub(st.lastAdvance),
		TTL:          st.ttl,
	}
}
