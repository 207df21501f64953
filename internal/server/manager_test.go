package server

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	rh "rowhammer"
	"rowhammer/internal/exp"
	"rowhammer/internal/store"
)

// tinyFig5 is the canonical small experiment campaign used across
// the server tests: 4 shards, tiny scale, deterministic.
func tinyFig5() Spec { return Spec{Kind: "fig5", Scale: "tiny", Seed: 1} }

// fig5Bytes computes the artifact bytes the fig5 campaign must
// produce — the same bytes `rhchar -exp fig5 -scale tiny -seed 1
// -format json` prints, per the golden tests.
func fig5Bytes(t *testing.T) []byte {
	t.Helper()
	e := exp.ByID("fig5")
	if e == nil {
		t.Fatal("fig5 not registered")
	}
	a, err := e.ComputeAll(context.Background(), exp.Config{Scale: rh.TinyScale(), Geometry: rh.TinyGeometry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestManager(t *testing.T, dir string, cfg ManagerConfig) (*Manager, *store.Store) {
	t.Helper()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close(); st.Close() })
	return mgr, st
}

// waitTerminal polls until the campaign reaches a terminal or drained
// state.
func waitTerminal(t *testing.T, mgr *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, ok := mgr.Status(id)
		if !ok {
			t.Fatalf("campaign %s vanished", id)
		}
		if st.Terminal() || st.State == StateDrained {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s (%d/%d)", id, st.State, st.Done, st.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitRunsCampaignToStoredArtifact(t *testing.T) {
	mgr, st := newTestManager(t, t.TempDir(), ManagerConfig{MaxActive: 2})
	status, existing, err := mgr.Submit(tinyFig5())
	if err != nil || existing {
		t.Fatalf("Submit = %+v existing=%v err=%v", status, existing, err)
	}
	if status.Total != 4 {
		t.Fatalf("fig5 expands to %d jobs, want 4", status.Total)
	}
	final := waitTerminal(t, mgr, status.ID)
	if final.State != StateDone || final.ArtifactID != status.ID || final.Failed != 0 {
		t.Fatalf("final status = %+v", final)
	}
	meta, payload, err := st.Get(final.ArtifactID)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Experiment != "fig5" || meta.Kind != exp.FleetKind("fig5") || meta.Seed != 1 {
		t.Fatalf("meta = %+v", meta)
	}
	if want := fig5Bytes(t); string(payload) != string(want) {
		t.Fatalf("stored artifact is not byte-identical to ComputeAll: %d vs %d bytes", len(payload), len(want))
	}
}

func TestSubmitIsIdempotent(t *testing.T) {
	mgr, _ := newTestManager(t, t.TempDir(), ManagerConfig{})
	first, _, err := mgr.Submit(tinyFig5())
	if err != nil {
		t.Fatal(err)
	}
	again, existing, err := mgr.Submit(tinyFig5())
	if err != nil || !existing || again.ID != first.ID {
		t.Fatalf("resubmit: %+v existing=%v err=%v", again, existing, err)
	}
	waitTerminal(t, mgr, first.ID)
	// Resubmitting a completed campaign returns its terminal status
	// without re-running it.
	done, existing, err := mgr.Submit(tinyFig5())
	if err != nil || !existing || done.State != StateDone {
		t.Fatalf("resubmit after done: %+v existing=%v err=%v", done, existing, err)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	mgr, _ := newTestManager(t, t.TempDir(), ManagerConfig{})
	for name, spec := range map[string]Spec{
		"unknown kind":     {Kind: "nosuch"},
		"unknown scale":    {Kind: "ber", Scale: "huge"},
		"descending temps": {Kind: "ber", Scale: "tiny", Temps: []float64{90, 50}},
	} {
		if _, _, err := mgr.Submit(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if n := len(mgr.Statuses()); n != 0 {
		t.Fatalf("rejected specs left %d campaigns behind", n)
	}
}

func TestFIFOQueueRespectsMaxActive(t *testing.T) {
	mgr, _ := newTestManager(t, t.TempDir(), ManagerConfig{MaxActive: 1, WorkerBudget: 2})
	var ids []string
	for _, seed := range []uint64{1, 2, 3} {
		spec := tinyFig5()
		spec.Seed = seed
		st, _, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitTerminal(t, mgr, id); st.State != StateDone {
			t.Fatalf("campaign %s: %+v", id, st)
		}
	}
	if n := len(mgr.Statuses()); n != 3 {
		t.Fatalf("have %d campaigns, want 3", n)
	}
}

// TestRecoverResumesInterruptedCampaign is the restart-convergence
// guarantee: a campaign directory holding a spec and a *partial* v2
// checkpoint (as a crash mid-campaign leaves behind) is re-enqueued
// by NewManager, resumed — adopted records are not re-run — and the
// published artifact is byte-identical to an uninterrupted run.
func TestRecoverResumesInterruptedCampaign(t *testing.T) {
	// First: a clean run, for the full checkpoint and reference bytes.
	cleanDir := t.TempDir()
	cleanMgr, cleanStore := newTestManager(t, cleanDir, ManagerConfig{})
	st0, _, err := cleanMgr.Submit(tinyFig5())
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, cleanMgr, st0.ID); s.State != StateDone {
		t.Fatalf("clean run: %+v", s)
	}
	_, want, err := cleanStore.Get(st0.ID)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(cleanDir, "campaigns", st0.ID, "ckpt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	specBytes, err := os.ReadFile(filepath.Join(cleanDir, "campaigns", st0.ID, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Second: a store whose campaign dir looks crash-interrupted —
	// spec.json, header + 2 of 4 checkpointed records, no status.json.
	lines := strings.SplitAfter(string(ckpt), "\n")
	if len(lines) < 5 {
		t.Fatalf("expected header + 4 records, got %d lines", len(lines))
	}
	partial := strings.Join(lines[:3], "") // header + 2 records
	crashDir := t.TempDir()
	cdir := filepath.Join(crashDir, "campaigns", st0.ID)
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cdir, "spec.json"), specBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cdir, "ckpt.jsonl"), []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}

	// Log is called from every manager goroutine, the fleet member's
	// included.
	var logMu sync.Mutex
	var resumedWith []string
	mgr, crashStore := newTestManager(t, crashDir, ManagerConfig{
		Log: func(format string, args ...any) {
			logMu.Lock()
			resumedWith = append(resumedWith, format)
			logMu.Unlock()
		},
	})
	final := waitTerminal(t, mgr, st0.ID)
	if final.State != StateDone {
		t.Fatalf("recovered campaign: %+v", final)
	}
	_, got, err := crashStore.Get(st0.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("resumed artifact differs from uninterrupted run")
	}
	var sawResume bool
	logMu.Lock()
	defer logMu.Unlock()
	for _, msg := range resumedWith {
		if strings.Contains(msg, "resuming with") {
			sawResume = true
		}
	}
	if !sawResume {
		t.Errorf("no resume log; recovery may have re-run everything: %q", resumedWith)
	}
}

// TestRecoverServesTerminalStatus: a done campaign's status and
// artifact survive a restart without re-running anything.
func TestRecoverServesTerminalStatus(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(st, ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := mgr.Submit(tinyFig5())
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, mgr, sub.ID)
	mgr.Close()
	st.Close()

	st2, rep, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rep.Loaded != 1 {
		t.Fatalf("store reload: %+v", rep)
	}
	mgr2, err := NewManager(st2, ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	got, ok := mgr2.Status(sub.ID)
	if !ok || got != final {
		t.Fatalf("restarted status = %+v ok=%v, want %+v", got, ok, final)
	}
	// Subscribe to a terminal campaign: snapshot, then closed channel.
	ch, cancel, ok := mgr2.Subscribe(sub.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()
	if first := <-ch; first.State != StateDone {
		t.Fatalf("snapshot = %+v", first)
	}
	if _, open := <-ch; open {
		t.Fatal("channel not closed after terminal snapshot")
	}
}

func TestDrainRejectsNewSubmits(t *testing.T) {
	mgr, _ := newTestManager(t, t.TempDir(), ManagerConfig{})
	ctx, cancelCtx := context.WithTimeout(context.Background(), time.Minute)
	defer cancelCtx()
	if err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.Submit(tinyFig5()); err != ErrDraining {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
}

func TestStatusPersistedAtomically(t *testing.T) {
	dir := t.TempDir()
	mgr, _ := newTestManager(t, dir, ManagerConfig{})
	sub, _, err := mgr.Submit(tinyFig5())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, mgr, sub.ID)
	b, err := os.ReadFile(filepath.Join(dir, "campaigns", sub.ID, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.ID != sub.ID {
		t.Fatalf("persisted status = %+v", st)
	}
}

// TestTerminalStatusDurableBeforePublished: a subscriber that receives
// a terminal snapshot must find status.json already on disk with the
// same content — for the done path and for the failure path alike.
func TestTerminalStatusDurableBeforePublished(t *testing.T) {
	failing := tinyFig5()
	failing.Seed = 2
	failing.JobTimeoutMS = 1 // every job misses its deadline
	for _, tc := range []struct {
		name  string
		spec  Spec
		state string
	}{
		{"done", tinyFig5(), StateDone},
		{"failed", failing, StateFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mgr, _ := newTestManager(t, dir, ManagerConfig{})
			sub, _, err := mgr.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			ch, cancel, ok := mgr.Subscribe(sub.ID)
			if !ok {
				t.Fatal("subscribe failed")
			}
			defer cancel()
			var last Status
			for st := range ch {
				last = st
			}
			if last.State != tc.state {
				t.Fatalf("terminal state = %q (%s), want %q", last.State, last.Error, tc.state)
			}
			b, err := os.ReadFile(filepath.Join(dir, "campaigns", sub.ID, "status.json"))
			if err != nil {
				t.Fatalf("terminal %s published before status.json was written: %v", last.State, err)
			}
			var persisted Status
			if err := json.Unmarshal(b, &persisted); err != nil {
				t.Fatal(err)
			}
			if persisted != last {
				t.Fatalf("persisted status %+v differs from the published %+v", persisted, last)
			}
		})
	}
}
