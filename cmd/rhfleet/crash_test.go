//go:build unix

package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"

	"rowhammer/internal/durable"
)

var (
	buildOnce sync.Once
	fleetBin  string
	buildErr  error
)

// fleetBinary builds the real rhfleet binary once per test run: the
// crash suite kills and resumes the shipped artifact, not a test
// harness approximation of it.
func fleetBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rhfleet-crash-*")
		if err != nil {
			buildErr = err
			return
		}
		fleetBin = filepath.Join(dir, "rhfleet")
		if out, err := exec.Command("go", "build", "-o", fleetBin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build rhfleet: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return fleetBin
}

func fleetArgs(ckpt, sum string) []string {
	return []string{"-mfrs", "A,B", "-modules", "2", "-exp", "hcfirst", "-scale", "tiny",
		"-seed", "7", "-quiet", "-out", ckpt, "-summary", sum}
}

// runFleet executes rhfleet and reports (exitCode, killedBySIGKILL).
func runFleet(t *testing.T, failpoint int64, args ...string) (int, bool) {
	t.Helper()
	cmd := exec.Command(fleetBinary(t), args...)
	cmd.Env = os.Environ()
	if failpoint >= 0 {
		cmd.Env = append(cmd.Env, "RHFLEET_FAILPOINT="+strconv.FormatInt(failpoint, 10))
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, false
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("rhfleet did not run: %v", err)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok {
		t.Fatalf("no wait status for rhfleet: %v", err)
	}
	if ws.Signaled() {
		if ws.Signal() != syscall.SIGKILL {
			t.Fatalf("rhfleet died on unexpected signal %v\n%s", ws.Signal(), stderr.Bytes())
		}
		return -1, true
	}
	return ws.ExitStatus(), false
}

// TestCrashRhfleetKillResume SIGKILLs the real rhfleet binary
// mid-checkpoint-write at several byte offsets (via the
// RHFLEET_FAILPOINT seam), resumes each run with -resume, and requires
// the published summary to be bit-identical to an uninterrupted run's.
func TestCrashRhfleetKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	refDir := t.TempDir()
	refCkpt := filepath.Join(refDir, "fleet.jsonl")
	refSumPath := filepath.Join(refDir, "summary.json")
	if code, killed := runFleet(t, -1, fleetArgs(refCkpt, refSumPath)...); code != 0 || killed {
		t.Fatalf("reference run: exit %d, killed=%v", code, killed)
	}
	refSum, err := os.ReadFile(refSumPath)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(refCkpt)
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range []int64{0, int64(len(full)) / 3, 2 * int64(len(full)) / 3, int64(len(full)) - 1} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "fleet.jsonl")
		sum := filepath.Join(dir, "summary.json")
		if _, killed := runFleet(t, off, fleetArgs(ckpt, sum)...); !killed {
			t.Fatalf("offset %d: rhfleet survived its failpoint", off)
		}
		if _, err := os.Stat(sum); !os.IsNotExist(err) {
			t.Fatalf("offset %d: a killed run must not publish a summary", off)
		}
		resumeArgs := append(fleetArgs(ckpt, sum), "-resume", ckpt)
		if code, killed := runFleet(t, -1, resumeArgs...); code != 0 || killed {
			t.Fatalf("offset %d: resume: exit %d, killed=%v", off, code, killed)
		}
		got, err := os.ReadFile(sum)
		if err != nil {
			t.Fatalf("offset %d: summary not published after resume: %v", off, err)
		}
		if !bytes.Equal(refSum, got) {
			t.Fatalf("offset %d: resumed summary differs from uninterrupted run", off)
		}
	}
}

// expFleetArgs runs a paper experiment (not a measurement kind)
// through rhfleet with fault injection active: the experiment-generic
// engine path must survive the same kill-anywhere treatment as the
// measurement cores.
func expFleetArgs(ckpt, art string) []string {
	return []string{"-exp", "fig5", "-scale", "tiny", "-seed", "7", "-quiet",
		"-fault-profile", "transient+seed=3", "-retries", "4",
		"-out", ckpt, "-artifact", art}
}

// TestCrashRhfleetExpKillResume SIGKILLs rhfleet mid-checkpoint-write
// while it runs the fig5 *experiment* campaign (one job per shard,
// transient fault injection active), resumes each run, and requires
// the published merged artifact to be bit-identical to an
// uninterrupted run's — the experiment pipeline inherits the engine's
// kill-anywhere guarantee, not just the measurement kinds.
func TestCrashRhfleetExpKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	refDir := t.TempDir()
	refCkpt := filepath.Join(refDir, "fig5.jsonl")
	refArt := filepath.Join(refDir, "fig5.artifact.json")
	if code, killed := runFleet(t, -1, expFleetArgs(refCkpt, refArt)...); code != 0 || killed {
		t.Fatalf("reference run: exit %d, killed=%v", code, killed)
	}
	refBytes, err := os.ReadFile(refArt)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(refCkpt)
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range []int64{0, int64(len(full)) / 2, int64(len(full)) - 1} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "fig5.jsonl")
		art := filepath.Join(dir, "fig5.artifact.json")
		if _, killed := runFleet(t, off, expFleetArgs(ckpt, art)...); !killed {
			t.Fatalf("offset %d: rhfleet survived its failpoint", off)
		}
		if _, err := os.Stat(art); !os.IsNotExist(err) {
			t.Fatalf("offset %d: a killed run must not publish an artifact", off)
		}
		resumeArgs := append(expFleetArgs(ckpt, art), "-resume", ckpt)
		if code, killed := runFleet(t, -1, resumeArgs...); code != 0 || killed {
			t.Fatalf("offset %d: resume: exit %d, killed=%v", off, code, killed)
		}
		got, err := os.ReadFile(art)
		if err != nil {
			t.Fatalf("offset %d: artifact not published after resume: %v", off, err)
		}
		if !bytes.Equal(refBytes, got) {
			t.Fatalf("offset %d: resumed artifact differs from uninterrupted run", off)
		}
	}
}

// TestExitQuarantinedExperimentEveryRole: an experiment campaign whose
// dead module the circuit breaker quarantines exits 4 from every role
// that concludes a campaign — unsharded, coordinator and merge — and
// none of them publishes the experiment artifact.
func TestExitQuarantinedExperimentEveryRole(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shards")
	art := filepath.Join(dir, "fig5.artifact.json")
	common := []string{"-exp", "fig5", "-scale", "tiny", "-seed", "7", "-quiet",
		"-fault-profile", "dead=A/0", "-breaker", "2", "-retries", "3", "-artifact", art}
	roles := []struct {
		name string
		args []string
	}{
		{"unsharded", []string{"-out", filepath.Join(dir, "fig5.jsonl")}},
		{"coordinator", []string{"-coordinate", "2", "-shard-dir", shardDir}},
		{"merge", []string{"-merge-shards", "-shard-dir", shardDir}},
	}
	for _, r := range roles {
		if code, killed := runFleet(t, -1, append(r.args, common...)...); code != 4 || killed {
			t.Errorf("%s: exit %d (killed=%v), want 4", r.name, code, killed)
		}
		if _, err := os.Stat(art); !os.IsNotExist(err) {
			t.Fatalf("%s: published the artifact of a campaign with a quarantined module", r.name)
		}
	}
}

// TestCrashRhfleetLockExclusion holds the checkpoint's advisory lock
// and requires a second rhfleet to refuse to start rather than
// interleave writes.
func TestCrashRhfleetLockExclusion(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.jsonl")
	lock, err := durable.AcquireLock(ckpt + ".lock")
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Release()
	code, killed := runFleet(t, -1, fleetArgs(ckpt, filepath.Join(dir, "summary.json"))...)
	if killed || code != 1 {
		t.Fatalf("locked checkpoint: exit %d, killed=%v; want exit 1", code, killed)
	}
}
