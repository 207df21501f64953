package shard

import (
	"sync"
	"time"

	"rowhammer/internal/leasesvc"
)

// StallTracker judges shard staleness by heartbeat Seq monotonicity
// on the *observer's* clock. The failure it exists to prevent: a
// worker on a host with a skewed clock must never look stalled while
// its Seq advances. The tracker remembers, per shard, the last Seq it
// saw and when *it* saw it change; a holder is stalled when its Seq
// has been frozen for longer than TTL of the observer's own time —
// whether or not the service has meanwhile expired the lease, since a
// wedged holder's lease expires on exactly that schedule.
type StallTracker struct {
	// Now is the observer clock; time.Now when nil. A test seam.
	Now func() time.Time

	mu   sync.Mutex
	seen map[int]stallSeen
}

type stallSeen struct {
	token uint64
	seq   uint64
	at    time.Time
}

func (t *StallTracker) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

// Stalled reports whether shard idx's lease, as observed in v, has a
// holder whose heartbeat Seq has been frozen for longer than ttl.
func (t *StallTracker) Stalled(idx int, v leasesvc.View, ttl time.Duration) bool {
	if ttl <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seen == nil {
		t.seen = map[int]stallSeen{}
	}
	now := t.now()
	s, ok := t.seen[idx]
	// A fencing-token change is a new holder: its Seq restarts at
	// zero, so comparing it against the predecessor's high-water Seq
	// would brand a freshly-acquired successor as frozen. Reset the
	// clock instead.
	if !ok || v.Token != s.token || v.Seq > s.seq {
		t.seen[idx] = stallSeen{token: v.Token, seq: v.Seq, at: now}
		return false
	}
	return now.Sub(s.at) > ttl
}

// Forget drops shard idx's history — called when its worker exits,
// so a respawned generation starts with a fresh stall clock.
func (t *StallTracker) Forget(idx int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.seen, idx)
}
