//go:build unix

// Serve-smoke suite: builds the real rhserved and rhchar binaries and
// drives the daemon end to end over HTTP — submit, SSE to completion,
// byte-identity against rhchar, graceful SIGTERM drain, index reload
// on restart, and SIGKILL-anywhere resume convergence. `make
// serve-smoke` runs exactly this suite.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	servedBin string
	rhcharBin string
	buildErr  error
)

// binaries builds rhserved and rhchar once per test run: the smoke
// suite exercises the shipped daemon, not an httptest approximation.
func binaries(t *testing.T) (string, string) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rhserved-smoke-*")
		if err != nil {
			buildErr = err
			return
		}
		servedBin = filepath.Join(dir, "rhserved")
		rhcharBin = filepath.Join(dir, "rhchar")
		if out, err := exec.Command("go", "build", "-o", servedBin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build rhserved: %v\n%s", err, out)
			return
		}
		if out, err := exec.Command("go", "build", "-o", rhcharBin, "../rhchar").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build rhchar: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return servedBin, rhcharBin
}

// daemon is one running rhserved under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	logs *bytes.Buffer
	mu   sync.Mutex
	// logsDone closes when the stderr reader hits EOF; cmd.Wait must
	// not run before it, since Wait closes the pipe and drops any
	// line still unread.
	logsDone chan struct{}
}

// startDaemon launches rhserved against dir on an ephemeral port and
// waits for its listening line.
func startDaemon(t *testing.T, dir string, extraArgs ...string) *daemon {
	t.Helper()
	bin, _ := binaries(t)
	args := append([]string{"-addr", "127.0.0.1:0", "-store", dir}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, logs: &bytes.Buffer{}, logsDone: make(chan struct{})}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	addrCh := make(chan string, 1)
	go func() {
		defer close(d.logsDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			fmt.Fprintln(d.logs, line)
			d.mu.Unlock()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addrCh:
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		t.Fatalf("rhserved never listened; log:\n%s", d.log())
	}
	return d
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// signalAndWait sends sig and returns the exit code.
func (d *daemon) signalAndWait(t *testing.T, sig syscall.Signal) int {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	<-d.logsDone
	err := d.cmd.Wait()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Fatalf("wait: %v", err)
	return -1
}

type status struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Error      string `json:"error"`
	ArtifactID string `json:"artifact_id"`
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func submit(t *testing.T, d *daemon, spec string) status {
	t.Helper()
	resp, err := http.Post(d.base+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/campaigns: %d %s", resp.StatusCode, body)
	}
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollDone polls campaign status until done, with a generous deadline.
func pollDone(t *testing.T, d *daemon, id string) status {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		var st status
		if code := getJSON(t, d.base+"/v1/campaigns/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET status: %d", code)
		}
		switch st.State {
		case "done":
			return st
		case "failed":
			t.Fatalf("campaign failed: %+v\nlog:\n%s", st, d.log())
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck: %+v\nlog:\n%s", st, d.log())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rhcharJSON runs rhchar and returns its artifact JSON bytes — the
// byte-identity reference for the stored artifact.
func rhcharJSON(t *testing.T, seed string) []byte {
	t.Helper()
	_, rhchar := binaries(t)
	out, err := exec.Command(rhchar, "-exp", "fig5", "-scale", "tiny", "-seed", seed, "-format", "json").Output()
	if err != nil {
		t.Fatalf("rhchar: %v", err)
	}
	return out
}

const fig5Spec = `{"kind":"fig5","scale":"tiny","seed":1}`

// TestServeSmoke is the end-to-end path: submit over HTTP, stream SSE
// to completion, fetch the artifact and require byte-identity with
// rhchar, query the index, drain on SIGTERM with exit 0, and serve
// everything again after a restart from the reloaded index.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, dir)

	st := submit(t, d, fig5Spec)
	if st.Total != 4 {
		t.Fatalf("fig5 expands to %d jobs, want 4", st.Total)
	}

	// Stream SSE until the stream ends; the final event must be done.
	resp, err := http.Get(d.base + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var last status
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("bad SSE payload %q: %v", data, err)
			}
		}
	}
	resp.Body.Close()
	if last.State != "done" || last.Done != last.Total {
		t.Fatalf("SSE final event = %+v\nlog:\n%s", last, d.log())
	}

	// Byte-identity: stored artifact == rhchar -format json.
	artifact := getBytes(t, d.base+"/v1/artifacts/"+last.ArtifactID)
	if want := rhcharJSON(t, "1"); !bytes.Equal(artifact, want) {
		t.Fatalf("stored artifact differs from rhchar output (%d vs %d bytes)", len(artifact), len(want))
	}

	// Index query finds it.
	var metas []map[string]any
	if code := getJSON(t, d.base+"/v1/artifacts?experiment=fig5&seed=1&mfr=A", &metas); code != http.StatusOK || len(metas) != 1 {
		t.Fatalf("index query: %d, %d metas", code, len(metas))
	}

	// Graceful drain: SIGTERM exits 0.
	if code := d.signalAndWait(t, syscall.SIGTERM); code != 0 {
		t.Fatalf("SIGTERM exit code = %d\nlog:\n%s", code, d.log())
	}

	// Restart on the same store: index reloads, status and artifact
	// survive, and the campaign is not re-run.
	d2 := startDaemon(t, dir)
	var health map[string]any
	if code := getJSON(t, d2.base+"/healthz", &health); code != http.StatusOK || health["artifacts"] != float64(1) {
		t.Fatalf("healthz after restart: %d %+v", code, health)
	}
	var st2 status
	if code := getJSON(t, d2.base+"/v1/campaigns/"+st.ID, &st2); code != http.StatusOK || st2.State != "done" {
		t.Fatalf("status after restart: %d %+v\nlog:\n%s", code, st2, d2.log())
	}
	if again := getBytes(t, d2.base+"/v1/artifacts/"+st.ID); !bytes.Equal(again, artifact) {
		t.Fatal("artifact changed across restart")
	}
	// Resubmitting the same spec is a no-op against the recovered state.
	if re := submit(t, d2, fig5Spec); re.ID != st.ID || re.State != "done" {
		t.Fatalf("resubmit after restart: %+v", re)
	}
	if code := d2.signalAndWait(t, syscall.SIGTERM); code != 0 {
		t.Fatalf("second drain exit code = %d", code)
	}
}

// TestServeSmokeKillResume SIGKILLs the daemon right after accepting
// a campaign — wherever that lands (mid-checkpoint, mid-job,
// pre-dispatch) — and requires the restarted daemon to converge to
// the same artifact bytes rhchar produces, resuming whatever the v2
// checkpoint captured rather than starting from nothing.
func TestServeSmokeKillResume(t *testing.T) {
	dir := t.TempDir()
	// workers=1 serializes the 4 shards, widening the mid-campaign
	// window the SIGKILL lands in.
	d := startDaemon(t, dir, "-worker-budget", "1")
	st := submit(t, d, `{"kind":"fig5","scale":"tiny","seed":2}`)

	// Let the campaign get going, then kill without any warning.
	time.Sleep(50 * time.Millisecond)
	d.cmd.Process.Kill()
	d.cmd.Wait()

	// The kernel dropped the store flock with the process; a restart
	// recovers the campaign and finishes it.
	d2 := startDaemon(t, dir)
	final := pollDone(t, d2, st.ID)
	artifact := getBytes(t, d2.base+"/v1/artifacts/"+final.ArtifactID)
	if want := rhcharJSON(t, "2"); !bytes.Equal(artifact, want) {
		t.Fatalf("post-crash artifact differs from rhchar output (%d vs %d bytes)\nlog:\n%s",
			len(artifact), len(want), d2.log())
	}
	if code := d2.signalAndWait(t, syscall.SIGTERM); code != 0 {
		t.Fatalf("drain after recovery exit code = %d", code)
	}
}

// TestServeSmokeHealthzDraining: once the first SIGTERM starts the
// drain, /healthz must flip from 200 to 503 with "draining": true
// while in-flight jobs finish — the readiness signal a load balancer
// needs to stop routing submits at a daemon that is shutting down.
func TestServeSmokeHealthzDraining(t *testing.T) {
	dir := t.TempDir()
	// workers=1 over a 16-job campaign keeps the daemon busy long
	// enough that the drain window is observable.
	d := startDaemon(t, dir, "-worker-budget", "1")
	var health map[string]any
	if code := getJSON(t, d.base+"/healthz", &health); code != http.StatusOK || health["ok"] != true {
		t.Fatalf("healthz before drain: %d %+v", code, health)
	}
	submit(t, d, `{"kind":"hcfirst","mfrs":["A","B","C","D"],"modules_per_mfr":4,"scale":"tiny","seed":5,"workers":1}`)

	// Hammer /healthz from before the signal until the listener
	// closes, recording whether the draining 503 was ever served.
	sawDraining := make(chan bool, 1)
	go func() {
		saw := false
		for {
			resp, err := http.Get(d.base + "/healthz")
			if err != nil {
				sawDraining <- saw
				return
			}
			var body map[string]any
			json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable && body["draining"] == true {
				saw = true
			}
		}
	}()

	if code := d.signalAndWait(t, syscall.SIGTERM); code != 0 {
		t.Fatalf("SIGTERM exit code = %d\nlog:\n%s", code, d.log())
	}
	select {
	case saw := <-sawDraining:
		if !saw {
			t.Fatalf("healthz never reported draining during shutdown\nlog:\n%s", d.log())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("healthz poller never observed the listener closing")
	}
}

// TestServeSmokeEarlySIGTERM: a SIGTERM sent the instant /healthz
// first answers 200 must still take the drain path and exit 0 — the
// signal handler has to be in place before the daemon serves anything,
// or the default action kills it. Several starts widen the window.
func TestServeSmokeEarlySIGTERM(t *testing.T) {
	for i := 0; i < 5; i++ {
		d := startDaemon(t, t.TempDir())
		if code := getJSON(t, d.base+"/healthz", nil); code != http.StatusOK {
			t.Fatalf("start %d: healthz = %d", i, code)
		}
		if code := d.signalAndWait(t, syscall.SIGTERM); code != 0 {
			t.Fatalf("start %d: SIGTERM right after the first healthz 200: exit %d\nlog:\n%s", i, code, d.log())
		}
	}
}
