package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rowhammer/internal/campaign"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// slowSpec is a campaign wide enough (16 jobs) and narrow enough
// (workers: 1) to still be running while the tests behind it poke at
// the queue — the measurement jobs are real compute, not sleeps.
func slowSpec(seed uint64) Spec {
	return Spec{Kind: "hcfirst", Mfrs: []string{"A", "B", "C", "D"},
		ModulesPerMfr: 4, Seed: seed, Scale: "tiny", Workers: 1}
}

// TestShardedSubmitByteIdenticalArtifact: a wire spec with shards > 1
// fans the campaign across in-process shard workers, lays its
// checkpoints out under <campaign>/shards, and publishes an artifact
// byte-identical to the unsharded run of the same spec. Shards is an
// execution knob, so both runs share one campaign identity.
func TestShardedSubmitByteIdenticalArtifact(t *testing.T) {
	// Unsharded reference.
	refMgr, refStore := newTestManager(t, t.TempDir(), ManagerConfig{})
	refSt, _, err := refMgr.Submit(tinyFig5())
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, refMgr, refSt.ID); s.State != StateDone {
		t.Fatalf("unsharded run: %+v", s)
	}
	_, want, err := refStore.Get(refSt.ID)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	mgr, st := newTestManager(t, dir, ManagerConfig{})
	spec := tinyFig5()
	spec.Shards = 3
	sub, _, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != refSt.ID {
		t.Fatalf("sharding changed the campaign identity: %s vs %s", sub.ID, refSt.ID)
	}
	final := waitTerminal(t, mgr, sub.ID)
	if final.State != StateDone || final.Failed != 0 || final.Done != final.Total {
		t.Fatalf("sharded run: %+v", final)
	}
	_, got, err := st.Get(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded artifact differs from unsharded run (%d vs %d bytes)", len(got), len(want))
	}
	// The on-disk layout is the same one `rhfleet -coordinate` uses:
	// one checkpoint per shard under <campaign>/shards.
	shardsDir := filepath.Join(dir, "campaigns", sub.ID, "shards")
	for _, a := range shard.Partition(3) {
		if _, err := os.Stat(shard.CheckpointPath(shardsDir, a)); err != nil {
			t.Errorf("shard %s left no checkpoint: %v", a, err)
		}
	}
}

// TestSubmitQueueFullTypedError: with the FIFO queue bounded, the
// submit that would overflow it gets *QueueFullError — not a silent
// drop, not an unbounded queue.
func TestSubmitQueueFullTypedError(t *testing.T) {
	mgr, _ := newTestManager(t, t.TempDir(), ManagerConfig{MaxActive: 1, MaxQueued: 1})
	first, _, err := mgr.Submit(slowSpec(1)) // occupies the active slot
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := mgr.Submit(slowSpec(2)) // fills the queue
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = mgr.Submit(slowSpec(3))
	var qerr *QueueFullError
	if !errors.As(err, &qerr) {
		t.Fatalf("overflow submit = %v, want *QueueFullError", err)
	}
	if qerr.Queued != 1 || qerr.Max != 1 {
		t.Fatalf("QueueFullError = %+v", qerr)
	}
	// Backpressure, not rejection: once the queue drains the same
	// spec is accepted.
	waitTerminal(t, mgr, first.ID)
	waitTerminal(t, mgr, queued.ID)
	retry, _, err := mgr.Submit(slowSpec(3))
	if err != nil {
		t.Fatalf("resubmit after drain: %v", err)
	}
	waitTerminal(t, mgr, retry.ID)
}

// TestHTTPQueueFull429: the HTTP layer maps *QueueFullError to 429
// Too Many Requests with a Retry-After hint.
func TestHTTPQueueFull429(t *testing.T) {
	ts, _, _ := newTestServer(t, ManagerConfig{MaxActive: 1, MaxQueued: 1})
	if _, code := postSpec(t, ts.URL, slowSpec(1)); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	if _, code := postSpec(t, ts.URL, slowSpec(2)); code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}
	body, err := json.Marshal(slowSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
}

// TestHTTPHealthzDraining: /healthz flips to 503 with "draining" once
// graceful shutdown begins — readiness for load balancers, distinct
// from the liveness 200.
func TestHTTPHealthzDraining(t *testing.T) {
	ts, mgr, _ := newTestServer(t, ManagerConfig{})
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["ok"] != true {
		t.Fatalf("healthz before drain: %d %+v", code, health)
	}
	if err := mgr.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	health = nil
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d %+v", code, health)
	}
	if health["draining"] != true || health["ok"] != false {
		t.Fatalf("draining healthz body = %+v", health)
	}
}

// TestHTTPSubmitBodyBound: POST /v1/campaigns refuses a body larger
// than the configured spec bound with 413 — a slow-loris or runaway
// client cannot make the daemon buffer an arbitrary spec — and the
// refusal leaks no campaign state: a well-formed spec still submits.
func TestHTTPSubmitBodyBound(t *testing.T) {
	mgr, st := newTestManager(t, t.TempDir(), ManagerConfig{})
	srv := New(mgr, st)
	srv.SetMaxSpecBytes(1 << 10)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Valid JSON that exceeds the bound: the byte limit must trip
	// before the decoder can object to anything else.
	huge := []byte(`{"kind":"` + strings.Repeat("x", 2<<10) + `"}`)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec = %d, want 413", resp.StatusCode)
	}
	if got := mgr.Statuses(); len(got) != 0 {
		t.Fatalf("oversized spec leaked %d campaign(s)", len(got))
	}
	if _, code := postSpec(t, ts.URL, slowSpec(1)); code != http.StatusAccepted {
		t.Fatalf("well-formed submit after 413 = %d, want 202", code)
	}
}

// TestHTTPMountLeases: the shard lease service mounts onto the
// campaign server's mux, so one rhserved listener serves campaigns,
// artifacts and fenced shard leases.
// TestHTTPRejectsJobCountBeyondBound: a submission one job past
// campaign.MaxJobs is answered 400 and queues nothing. (It is the
// smallest such spec, so a server that accepted it would expand it
// cheaply; the 82-byte spec that would exhaust memory is only ever
// resolved, in TestResolveRejectsHugeJobCount.)
func TestHTTPRejectsJobCountBeyondBound(t *testing.T) {
	ts, mgr, _ := newTestServer(t, ManagerConfig{})
	body := fmt.Sprintf(`{"kind":"hcfirst","mfrs":["A"],"modules_per_mfr":%d,"scale":"tiny"}`, campaign.MaxJobs+1)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "jobs") {
		t.Fatalf("POST of %d jobs = %d %s, want 400 naming the job limit", campaign.MaxJobs+1, resp.StatusCode, msg)
	}
	if n := len(mgr.Statuses()); n != 0 {
		t.Fatalf("%d campaigns queued after a rejected submission", n)
	}
}

func TestHTTPMountLeases(t *testing.T) {
	mgr, st := newTestManager(t, t.TempDir(), ManagerConfig{})
	srv := New(mgr, st)
	srv.Mount(leasesvc.NewService(0).Register)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	client := &leasesvc.Client{BaseURL: ts.URL}
	key := leasesvc.Key{Campaign: "deadbeefdeadbeef", Shard: 0, Of: 2}
	grant, err := client.Acquire(t.Context(), key, "test", 0)
	if err != nil {
		t.Fatalf("acquire through mounted mux: %v", err)
	}
	if grant.Token != 1 {
		t.Fatalf("first token = %d, want 1", grant.Token)
	}
	if err := client.Beat(t.Context(), key, grant.Token, leasesvc.Beat{Seq: 1, Done: 0, Total: 4}); err != nil {
		t.Fatalf("beat through mounted mux: %v", err)
	}
	// The campaign routes still answer beside the lease routes.
	if code := getJSON(t, ts.URL+"/v1/campaigns", nil); code != http.StatusOK {
		t.Fatalf("GET /v1/campaigns beside leases = %d", code)
	}
	if err := client.Release(t.Context(), key, grant.Token); err != nil {
		t.Fatalf("release through mounted mux: %v", err)
	}
}
