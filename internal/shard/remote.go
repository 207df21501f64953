package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rowhammer/internal/leasesvc"
)

// Shard ownership lives in a lease service (leasesvc), in process or
// across the network, and the protocol is built for a network that
// can lie in ways a kernel cannot:
//
//   - Acquisition is *patient*: a predecessor's lease can outlive its
//     process by up to TTL when nobody is left to release it, so an
//     acquirer polls until the service ages the old lease out instead
//     of failing fast. A coordinator that watched its worker exit
//     releases the lease itself, so its respawns acquire at once.
//   - Every acquisition carries a monotonic fencing token, raised
//     into the shard's fence file before the first append; the
//     checkpoint writer enforces it per record (FencedWriter).
//   - Heartbeat failures degrade gracefully: the worker keeps
//     running while beats fail, and only after TTL of continuous
//     failure does it self-fence — drain in-flight work, flush the
//     checkpoint, stop — rather than racing a successor that the
//     coordinator may already have started.

// acquirePatience bounds, in lease TTLs, how long acquisition waits
// for a held lease to age out.
const acquirePatience = 4

// remoteKeeper owns one held remote lease: it beats, watches for
// supersession, and trips the self-fence channel.
type remoteKeeper struct {
	svc   leasesvc.API
	key   leasesvc.Key
	token uint64
	ttl   time.Duration
	logf  func(format string, args ...any)

	mu        sync.Mutex
	seq       uint64
	firstFail time.Time // zero ⇒ the last beat reached the service
	why       string

	fenced     chan struct{}
	fencedOnce sync.Once
}

// acquireLease acquires the shard lease from the service, patiently:
// ErrHeld answers are polled (the predecessor's lease has up to TTL
// left to age out), transport failures ride the client's own retry
// policy, and the loop gives up after acquirePatience TTLs without an
// acquisition. ttl 0 means the default TTL of an in-process service,
// leasesvc.DefaultTTL otherwise.
func acquireLease(ctx context.Context, svc leasesvc.API, key leasesvc.Key, owner string, ttl time.Duration, logf func(string, ...any)) (*remoteKeeper, error) {
	if ttl <= 0 {
		ttl = leasesvc.DefaultTTL
		if s, ok := svc.(*leasesvc.Service); ok {
			ttl = s.DefaultLeaseTTL()
		}
	}
	patience := acquirePatience * ttl
	poll := ttl / 4
	deadline := time.Now().Add(patience)
	for {
		grant, err := svc.Acquire(ctx, key, owner, ttl)
		if err == nil {
			return &remoteKeeper{
				svc: svc, key: key, token: grant.Token, ttl: grant.TTL,
				logf: logf, fenced: make(chan struct{}),
			}, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !errors.Is(err, leasesvc.ErrHeld) {
			return nil, fmt.Errorf("shard: acquiring lease %s: %w", key, err)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shard: lease %s still held after %s: %w", key, patience, err)
		}
		logf("shard %d/%d: lease held, waiting for predecessor to age out", key.Shard, key.Of)
		t := time.NewTimer(poll)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// beat sends one heartbeat and runs the graceful-degradation clock:
// a fenced answer self-fences immediately (a successor owns the
// shard); transport failures self-fence only after they have lasted
// TTL — the service, seeing the same silence, is aging the lease out
// on the same schedule, so both sides converge on the handover.
func (k *remoteKeeper) beat(ctx context.Context, done, total int) {
	k.mu.Lock()
	k.seq++
	seq := k.seq
	k.mu.Unlock()
	err := k.svc.Beat(ctx, k.key, k.token, leasesvc.Beat{Seq: seq, Done: done, Total: total})
	switch {
	case err == nil:
		k.mu.Lock()
		k.firstFail = time.Time{}
		k.mu.Unlock()
	case errors.Is(err, leasesvc.ErrFenced) || errors.Is(err, leasesvc.ErrUnknown):
		k.selfFence(fmt.Sprintf("superseded (beat: %v)", err))
	case errors.Is(err, context.Canceled):
		// Shutdown, not network weather — a deadline falls through to
		// the default arm and counts toward the outage clock.
	default:
		k.mu.Lock()
		if k.firstFail.IsZero() {
			k.firstFail = time.Now()
			k.mu.Unlock()
			k.logf("shard %d/%d: heartbeat failing (%v); self-fence in %s unless the service answers",
				k.key.Shard, k.key.Of, err, k.ttl)
			return
		}
		outage := time.Since(k.firstFail)
		k.mu.Unlock()
		if outage > k.ttl {
			k.selfFence(fmt.Sprintf("lease service unreachable for %s (> TTL %s)",
				outage.Round(time.Millisecond), k.ttl))
		}
	}
}

// selfFence trips the drain channel exactly once.
func (k *remoteKeeper) selfFence(why string) {
	k.fencedOnce.Do(func() {
		k.mu.Lock()
		k.why = why
		k.mu.Unlock()
		k.logf("shard %d/%d: self-fencing: %s", k.key.Shard, k.key.Of, why)
		close(k.fenced)
	})
}

// selfFenced reports whether the keeper tripped, and why.
func (k *remoteKeeper) selfFenced() (string, bool) {
	select {
	case <-k.fenced:
		k.mu.Lock()
		defer k.mu.Unlock()
		return k.why, true
	default:
		return "", false
	}
}

// release ends the lease, best-effort with a short deadline — on a
// partition the lease simply ages out instead.
func (k *remoteKeeper) release() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := k.svc.Release(ctx, k.key, k.token); err != nil && !errors.Is(err, leasesvc.ErrUnknown) {
		k.logf("shard %d/%d: releasing lease: %v", k.key.Shard, k.key.Of, err)
	}
}
