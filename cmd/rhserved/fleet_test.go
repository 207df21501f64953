//go:build unix

// Fleet placement drill: builds the real rhserved and rhfleet
// binaries, registers three `rhfleet -worker` processes with the
// daemon's placement layer — one of them crippled by deterministic
// network latency on its lease client — submits a sharded campaign
// over HTTP, SIGKILLs a healthy worker mid-run, and requires the
// scheduler to rebalance off the straggler, reassign the dead
// worker's shards, and publish an artifact byte-identical to a
// single-process rhfleet run. `make chaos-fleet` runs exactly this.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"rowhammer/internal/server"
)

var (
	fleetBuildOnce sync.Once
	rhfleetBin     string
	fleetBuildErr  error
)

// rhfleetBinary builds the real rhfleet once per test run — the drill
// exercises the shipped worker, not an in-process approximation.
func rhfleetBinary(t *testing.T) string {
	t.Helper()
	fleetBuildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rhserved-fleet-*")
		if err != nil {
			fleetBuildErr = err
			return
		}
		rhfleetBin = filepath.Join(dir, "rhfleet")
		if out, err := exec.Command("go", "build", "-o", rhfleetBin, "../rhfleet").CombinedOutput(); err != nil {
			fleetBuildErr = fmt.Errorf("go build rhfleet: %v\n%s", err, out)
		}
	})
	if fleetBuildErr != nil {
		t.Fatal(fleetBuildErr)
	}
	return rhfleetBin
}

// lockedBuf is a goroutine-safe buffer for child-process output.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

type fleetWorker struct {
	id   string
	cmd  *exec.Cmd
	logs *lockedBuf
}

// startFleetWorker launches `rhfleet -worker` against the daemon's
// placement layer. Extra args ride along (the straggler's -net-chaos).
func startFleetWorker(t *testing.T, base, id string, extra ...string) *fleetWorker {
	t.Helper()
	args := append([]string{"-worker", "-lease-url", base, "-worker-id", id, "-lease-ttl", "2s", "-quiet"}, extra...)
	cmd := exec.Command(rhfleetBinary(t), args...)
	logs := &lockedBuf{}
	cmd.Stdout, cmd.Stderr = logs, logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w := &fleetWorker{id: id, cmd: cmd, logs: logs}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	return w
}

// waitWorkersAlive polls GET /v1/workers until n registrations are
// alive.
func waitWorkersAlive(t *testing.T, d *daemon, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var views []struct {
			ID    string `json:"id"`
			Alive bool   `json:"alive"`
		}
		getJSON(t, d.base+"/v1/workers", &views)
		alive := 0
		for _, v := range views {
			if v.Alive {
				alive++
			}
		}
		if alive >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d fleet workers alive; daemon log:\n%s", alive, n, d.log())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetChaosDrill is the end-to-end placement-layer drill. A
// campaign submitted with "shards": 8 must complete on the fleet —
// the three registered workers plus the daemon's own member — survive
// one worker SIGKILLed mid-run and one straggler slowed by 400ms of
// injected latency per lease call, move the straggler's queued shard
// to a faster worker, and still publish the summary byte-identical to
// a single-process rhfleet run of the same campaign.
//
// The campaign is sized so that rebalance is decisive rather than a
// race: 48 jobs over 8 shards gives the straggler 6 jobs per shard,
// each gated by a 400ms heartbeat. Its rate (~2.5 jobs/s) is measured
// while its first shard is still running, and its queued shard alone
// then puts its ETA seconds above the fast workers' — well past the
// scheduler's TTL/2 margin. With 2 jobs per shard the straggler's
// rate is known only as its first shard finishes, and its 2-job queue
// (~1s) never clears that margin.
func TestFleetChaosDrill(t *testing.T) {
	// Reference bytes: the same campaign, one process, no daemon.
	refDir := t.TempDir()
	refSum := filepath.Join(refDir, "summary.json")
	ref := exec.Command(rhfleetBinary(t),
		"-mfrs", "A,B,C,D", "-modules", "12", "-exp", "hcfirst", "-scale", "tiny", "-seed", "7",
		"-workers", "2", "-quiet",
		"-out", filepath.Join(refDir, "ref.jsonl"), "-summary", refSum)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference rhfleet run: %v\n%s", err, out)
	}
	want, err := os.ReadFile(refSum)
	if err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, t.TempDir(), "-lease-ttl", "2s")
	w1 := startFleetWorker(t, d.base, "w1")
	w2 := startFleetWorker(t, d.base, "w2")
	w3 := startFleetWorker(t, d.base, "w3", "-net-chaos", "latency=1:400ms")
	t.Cleanup(func() { saveDrillLogs(t, d, w1, w2, w3) })
	// The three workers plus the daemon's own member.
	waitWorkersAlive(t, d, 4)

	st := submit(t, d, `{"kind":"hcfirst","mfrs":["A","B","C","D"],"modules_per_mfr":12,"scale":"tiny","seed":7,"workers":2,"shards":8}`)

	// Wait until w1 demonstrably holds a shard lease — it is mid-shard
	// right now — then SIGKILL it without any warning: the held lease
	// must lapse and be reassigned, and w1's queued placements must be
	// re-placed onto the survivors.
	killDeadline := time.Now().Add(time.Minute)
	for {
		var leases []struct {
			Held  bool   `json:"held"`
			Owner string `json:"owner"`
		}
		getJSON(t, d.base+"/v1/leases", &leases)
		holding := false
		for _, l := range leases {
			if l.Held && l.Owner == w1.id {
				holding = true
				break
			}
		}
		if holding {
			break
		}
		var cur status
		getJSON(t, d.base+"/v1/campaigns/"+st.ID, &cur)
		if cur.State == "done" || cur.State == "failed" || time.Now().After(killDeadline) {
			t.Fatalf("campaign reached %q before %s ever held a lease; daemon log:\n%s", cur.State, w1.id, d.log())
		}
		time.Sleep(2 * time.Millisecond)
	}
	w1.cmd.Process.Kill()
	w1.cmd.Wait()
	t.Logf("SIGKILLed worker %s while it held a shard lease", w1.id)

	final := pollDone(t, d, st.ID)
	log := d.log()

	// The manager fanned out to the fleet rather than running anything
	// in process.
	if !regexp.MustCompile(`fanning \d+ shard\(s\) out across`).MatchString(log) {
		t.Fatalf("daemon never fanned out to the fleet; log:\n%s", log)
	}
	// The dead worker's shards moved: either a held lease lapsed and
	// the shard was reassigned to a fresh generation, or a never-
	// started placement was re-placed onto a live worker.
	if !regexp.MustCompile(`reassigning|re-placing`).MatchString(log) {
		t.Fatalf("no reassignment after SIGKILLing %s; log:\n%s", w1.id, log)
	}
	// The scheduler rebalanced queued work off the straggler (w3).
	if !regexp.MustCompile(`rebalance — reassigning queued shard from worker w3 `).MatchString(log) {
		t.Fatalf("scheduler never rebalanced off the slow worker; log:\n%s", log)
	}

	got := getBytes(t, d.base+"/v1/artifacts/"+final.ArtifactID)
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet artifact differs from single-process summary (%d vs %d bytes)\ndaemon log:\n%s",
			len(got), len(want), log)
	}
}

// saveDrillLogs writes the daemon's and each worker's log under
// $RH_CRASH_DIR/chaos-fleet when the test failed, where CI picks them
// up. Without RH_CRASH_DIR the failure message carries the daemon log.
func saveDrillLogs(t *testing.T, d *daemon, workers ...*fleetWorker) {
	base := os.Getenv("RH_CRASH_DIR")
	if base == "" || !t.Failed() {
		return
	}
	dir := filepath.Join(base, "chaos-fleet")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("saving drill logs: %v", err)
		return
	}
	logs := map[string]string{"rhserved": d.log()}
	for _, w := range workers {
		logs[w.id] = w.logs.String()
	}
	for name, text := range logs {
		if err := os.WriteFile(filepath.Join(dir, name+".log"), []byte(text), 0o644); err != nil {
			t.Logf("saving drill logs: %v", err)
		}
	}
}

// TestFleetWorkersEndpointShape pins the operator-facing JSON of
// GET /v1/workers and GET /v1/stats against a live daemon with one
// registered worker — the wire schema EXPERIMENTS.md documents — and
// that the daemon's own member is listed beside it with the slots its
// flags derive: -max-active × -worker-budget.
func TestFleetWorkersEndpointShape(t *testing.T) {
	d := startDaemon(t, t.TempDir(), "-lease-ttl", "2s", "-max-active", "3", "-worker-budget", "2")
	startFleetWorker(t, d.base, "shape-w")
	waitWorkersAlive(t, d, 2)

	resp, err := http.Get(d.base + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	byID := map[string]map[string]any{}
	for _, v := range views {
		id, _ := v["id"].(string)
		byID[id] = v
	}
	w, ok := byID["shape-w"]
	if !ok {
		t.Fatalf("worker shape-w not listed: %v", views)
	}
	for _, key := range []string{"id", "token", "alive", "slots", "seq", "ttl_ms"} {
		if _, ok := w[key]; !ok {
			t.Fatalf("GET /v1/workers entry missing %q: %v", key, w)
		}
	}
	local, ok := byID[server.LocalWorkerID]
	if !ok {
		t.Fatalf("the daemon's own member %q is not listed: %v", server.LocalWorkerID, views)
	}
	if local["alive"] != true || local["slots"] != float64(3*2) {
		t.Fatalf("daemon member = %v, want alive with 6 slots (-max-active 3 × -worker-budget 2)", local)
	}

	var stats map[string]any
	if code := getJSON(t, d.base+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	for _, key := range []string{"lease_acquires", "lease_beats", "fenced_rejections", "worker_beats", "workers_registered"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("GET /v1/stats missing %q: %v", key, stats)
		}
	}
	if stats["workers_registered"].(float64) < 2 {
		t.Fatalf("workers_registered = %v, want >= 2", stats["workers_registered"])
	}
}
