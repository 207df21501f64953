package leasesvc

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func testPlacement(shard int) Placement {
	return Placement{Campaign: "deadbeefdeadbeef", Dir: "/tmp/shards", Shard: shard, Of: 4}
}

func TestRegisterWorkerMintsMonotonicTokensAndSupersedes(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()

	g1, err := s.RegisterWorker(ctx, "w1", "hostA:1", 2, 0)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if g1.Token != 1 || g1.TTL != time.Second {
		t.Fatalf("grant = %+v, want token 1, ttl 1s", g1)
	}
	// Re-registration (a restarted worker) supersedes immediately — no
	// TTL wait — and fences the old token.
	g2, err := s.RegisterWorker(ctx, "w1", "hostA:2", 1, 0)
	if err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if g2.Token != 2 {
		t.Fatalf("second token = %d, want 2", g2.Token)
	}
	if _, err := s.WorkerBeat(ctx, "w1", g1.Token, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie beat = %v, want ErrFenced", err)
	}
	if _, err := s.WorkerBeat(ctx, "w1", g2.Token, 1); err != nil {
		t.Fatalf("successor beat: %v", err)
	}
	if _, err := s.WorkerBeat(ctx, "w1", 99, 1); !errors.Is(err, ErrUnknown) {
		t.Fatalf("never-minted token beat = %v, want ErrUnknown", err)
	}
	if _, err := s.WorkerBeat(ctx, "ghost", 1, 1); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown worker beat = %v, want ErrUnknown", err)
	}
	if _, err := s.RegisterWorker(ctx, "", "x", 1, 0); err == nil {
		t.Fatal("empty worker id should be rejected")
	}
}

func TestWorkerBeatDeliversAssignmentsAndSeqDrivesLiveness(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()

	g, _ := s.RegisterWorker(ctx, "w1", "hostA:1", 1, 0)
	p0, p1 := testPlacement(0), testPlacement(1)
	if err := s.Assign("w1", p0); err != nil {
		t.Fatalf("assign: %v", err)
	}
	if err := s.Assign("w1", p0); err != nil {
		t.Fatalf("re-assign same placement should be a no-op, got %v", err)
	}
	if err := s.Assign("w1", p1); err != nil {
		t.Fatalf("assign: %v", err)
	}
	ps, err := s.WorkerBeat(ctx, "w1", g.Token, 1)
	if err != nil || len(ps) != 2 {
		t.Fatalf("beat = %v placements, err %v; want 2", ps, err)
	}
	s.Unassign("w1", p0)
	s.Unassign("w1", p0) // idempotent
	if ps, _ = s.WorkerBeat(ctx, "w1", g.Token, 2); len(ps) != 1 || ps[0] != p1 {
		t.Fatalf("post-unassign beat = %v, want [%v]", ps, p1)
	}

	// Frozen Seq ages the registration out on the service clock —
	// exactly the lease discipline.
	for i := 0; i < 3; i++ {
		clk.advance(500 * time.Millisecond)
		s.WorkerBeat(ctx, "w1", g.Token, 2)
	}
	ws := s.Workers()
	if len(ws) != 1 || ws[0].Alive {
		t.Fatalf("worker with frozen Seq should be !Alive: %+v", ws)
	}
	// Assigning to a dead-but-registered worker still works (its lease
	// fencing protects correctness), but to a deregistered one does not.
	if err := s.DeregisterWorker(ctx, "w1", g.Token); err != nil {
		t.Fatalf("deregister: %v", err)
	}
	if err := s.Assign("w1", p0); !errors.Is(err, ErrUnknown) {
		t.Fatalf("assign to deregistered worker = %v, want ErrUnknown", err)
	}
	if err := s.DeregisterWorker(ctx, "w1", g.Token-1+99); !errors.Is(err, ErrUnknown) {
		t.Fatalf("deregister with never-minted token = %v, want ErrUnknown", err)
	}
}

func TestWorkerRegistryOverHTTP(t *testing.T) {
	s := NewService(time.Second)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, Retries: 1}
	ctx := context.Background()

	g, err := c.RegisterWorker(ctx, "w1", "hostA:1", 3, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("register over HTTP: %v", err)
	}
	if g.Token != 1 || g.TTL != 500*time.Millisecond {
		t.Fatalf("grant = %+v", g)
	}
	p := testPlacement(2)
	if err := s.Assign("w1", p); err != nil {
		t.Fatal(err)
	}
	ps, err := c.WorkerBeat(ctx, "w1", g.Token, 1)
	if err != nil || len(ps) != 1 || ps[0] != p {
		t.Fatalf("beat = %v, err %v; want [%v]", ps, err, p)
	}
	resp, err := http.Get(srv.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var views []wireWorker
	err = json.NewDecoder(resp.Body).Decode(&views)
	resp.Body.Close()
	if err != nil || len(views) != 1 {
		t.Fatalf("GET /v1/workers = %v, err %v", views, err)
	}
	if v := views[0]; v.ID != "w1" || !v.Alive || v.Slots != 3 || len(v.Assignments) != 1 {
		t.Fatalf("worker view = %+v", v)
	}
	// The sentinel errors survive the wire for the registry too.
	if _, err := c.WorkerBeat(ctx, "w1", g.Token+1, 2); !errors.Is(err, ErrUnknown) {
		t.Fatalf("never-minted token over HTTP = %v, want ErrUnknown", err)
	}
	g2, _ := c.RegisterWorker(ctx, "w1", "hostA:2", 1, 0)
	if _, err := c.WorkerBeat(ctx, "w1", g.Token, 2); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced beat over HTTP = %v, want ErrFenced", err)
	}
	if err := c.DeregisterWorker(ctx, "w1", g2.Token); err != nil {
		t.Fatalf("deregister over HTTP: %v", err)
	}
}

func TestStatsCountersTrackChurn(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()
	key := testKey()

	g1, _ := s.Acquire(ctx, key, "a:1", 0)
	s.Beat(ctx, key, g1.Token, Beat{Seq: 1, Done: 1, Total: 4})
	clk.advance(2 * time.Second) // expire
	g2, _ := s.Acquire(ctx, key, "b:2", 0)
	if err := s.Beat(ctx, key, g1.Token, Beat{Seq: 2}); !errors.Is(err, ErrFenced) {
		t.Fatalf("expected fenced beat, got %v", err)
	}
	s.Beat(ctx, key, g2.Token, Beat{Seq: 1, Done: 2, Total: 4})
	gw, _ := s.RegisterWorker(ctx, "w1", "hostA:1", 1, 0)
	s.RegisterWorker(ctx, "w2", "hostB:1", 1, 0)
	s.WorkerBeat(ctx, "w1", gw.Token, 1)

	st := s.StatsSnapshot()
	want := Stats{LeaseAcquires: 2, LeaseBeats: 2, FencedRejections: 1, WorkerBeats: 1, WorkersRegistered: 2}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	// The gauge decays with liveness: freeze both workers past TTL.
	clk.advance(2 * time.Second)
	if st := s.StatsSnapshot(); st.WorkersRegistered != 0 {
		t.Fatalf("workers gauge after expiry = %d, want 0", st.WorkersRegistered)
	}
}

// TestWorkerRegistryGC: dead registrations — deregistered, or with an
// expired heartbeat — are swept once they have been dead for
// staleStateFactor TTLs, so a long-lived service does not accumulate
// one corpse per worker restart (the default worker ID is host:pid).
// Recently dead entries stay listed for diagnostics, and live workers
// are never swept regardless of age.
func TestWorkerRegistryGC(t *testing.T) {
	clk := newFakeClock()
	s := NewService(time.Second)
	s.SetNow(clk.now)
	ctx := context.Background()

	gDereg, _ := s.RegisterWorker(ctx, "deregistered", "hostA:1", 1, 0)
	s.DeregisterWorker(ctx, "deregistered", gDereg.Token)
	s.RegisterWorker(ctx, "vanished", "hostB:1", 1, 0)

	clk.advance(5 * time.Second)
	if n := len(s.Workers()); n != 2 {
		t.Fatalf("recently dead workers swept early: %d listed, want 2", n)
	}

	gLive, _ := s.RegisterWorker(ctx, "alive", "hostC:1", 1, 0)
	for seq := uint64(1); seq <= 40; seq++ {
		clk.advance(500 * time.Millisecond)
		if _, err := s.WorkerBeat(ctx, "alive", gLive.Token, seq); err != nil {
			t.Fatalf("beat %d: %v", seq, err)
		}
	}
	ws := s.Workers()
	if len(ws) != 1 || ws[0].ID != "alive" || !ws[0].Alive {
		t.Fatalf("after the grace period: %+v, want only the live worker", ws)
	}

	// A zombie of a swept registration gets ErrUnknown — the same
	// signal as a registry restart — and simply re-registers.
	if _, err := s.WorkerBeat(ctx, "vanished", 1, 99); !errors.Is(err, ErrUnknown) {
		t.Fatalf("swept zombie beat = %v, want ErrUnknown", err)
	}
	if _, err := s.RegisterWorker(ctx, "vanished", "hostB:2", 1, 0); err != nil {
		t.Fatalf("re-register after sweep: %v", err)
	}
}

// TestChangedSignalsLeaseAndPlacementChanges: every lease or placement
// mutation closes the Changed channel handed out before it, and a
// worker's own registration and heartbeats never do — a worker that
// wakes on Changed and beats must not wake itself again.
func TestChangedSignalsLeaseAndPlacementChanges(t *testing.T) {
	s := NewService(time.Second)
	ctx := context.Background()
	key := testKey()
	p := testPlacement(0)
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}

	ch := s.Changed()
	g, err := s.RegisterWorker(ctx, "w1", "hostA:1", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WorkerBeat(ctx, "w1", g.Token, 1); err != nil {
		t.Fatal(err)
	}
	if closed(ch) {
		t.Fatal("RegisterWorker or WorkerBeat closed Changed: a waking worker would re-trigger itself")
	}

	var grant Grant
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"Assign", func() error { return s.Assign("w1", p) }},
		{"Acquire", func() (err error) { grant, err = s.Acquire(ctx, key, "w1", 0); return err }},
		{"Beat", func() error { return s.Beat(ctx, key, grant.Token, Beat{Seq: 1, Done: 1, Total: 4}) }},
		{"Release", func() error { return s.Release(ctx, key, grant.Token) }},
		{"Unassign", func() error { s.Unassign("w1", p); return nil }},
	} {
		ch := s.Changed()
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if !closed(ch) {
			t.Fatalf("%s did not close the previously returned Changed channel", step.name)
		}
		if closed(s.Changed()) {
			t.Fatalf("after %s, Changed returned an already-closed channel", step.name)
		}
	}

	// A heartbeat answer carrying assignments is still not a change.
	if err := s.Assign("w1", p); err != nil {
		t.Fatal(err)
	}
	ch = s.Changed()
	if ps, err := s.WorkerBeat(ctx, "w1", g.Token, 2); err != nil || len(ps) != 1 {
		t.Fatalf("WorkerBeat = %v, %v", ps, err)
	}
	if closed(ch) {
		t.Fatal("WorkerBeat closed Changed")
	}
}
