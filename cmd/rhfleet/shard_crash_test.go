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
	"strings"
	"syscall"
	"testing"
	"time"

	"rowhammer/internal/shard"
)

// The multi-process kill-anywhere drill: SIGKILL random shard workers
// mid-checkpoint-write (and the coordinator itself), and require the
// reassigned, resumed run to converge to a summary byte-identical to
// a single-process run. Tests are named TestCrashShard* so they ride
// `make crash` with the rest of the kill-anywhere suite.

func coordArgs(dir, sum string, shards int) []string {
	return []string{"-coordinate", fmt.Sprint(shards), "-shard-dir", dir,
		"-mfrs", "A,B,C,D", "-modules", "4", "-exp", "hcfirst", "-scale", "tiny",
		"-seed", "7", "-quiet", "-lease-ttl", "2s", "-summary", sum}
}

// runCoord executes a coordinator with optional extra env, returning
// (exitCode, killedBySIGKILL, stderr).
func runCoord(t *testing.T, env []string, args ...string) (int, bool, string) {
	t.Helper()
	cmd := exec.Command(fleetBinary(t), args...)
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, false, stderr.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("rhfleet did not run: %v", err)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok {
		t.Fatalf("no wait status: %v", err)
	}
	if ws.Signaled() {
		return -1, ws.Signal() == syscall.SIGKILL, stderr.String()
	}
	return ws.ExitStatus(), false, stderr.String()
}

// TestCrashShardWorkerKillReassign SIGKILLs one shard worker
// mid-checkpoint-write at several byte offsets (via the
// RHFLEET_SHARD_FAILPOINT seam). The coordinator must see the death,
// reassign the shard's remaining jobs to a fresh worker, and publish
// a summary byte-identical to the single-process run.
func TestCrashShardWorkerKillReassign(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	// Single-process reference.
	refDir := t.TempDir()
	refSumPath := filepath.Join(refDir, "sum.json")
	refArgs := []string{"-mfrs", "A,B,C,D", "-modules", "4", "-exp", "hcfirst", "-scale", "tiny",
		"-seed", "7", "-quiet", "-out", filepath.Join(refDir, "fleet.jsonl"), "-summary", refSumPath}
	if code, killed := runFleet(t, -1, refArgs...); code != 0 || killed {
		t.Fatalf("reference run: exit %d, killed=%v", code, killed)
	}
	refSum, err := os.ReadFile(refSumPath)
	if err != nil {
		t.Fatal(err)
	}

	// Clean coordinated run: proves parity and measures a shard
	// checkpoint so the drill offsets land inside real writes.
	cleanDir := t.TempDir()
	cleanSum := filepath.Join(cleanDir, "sum.json")
	if code, killed, errOut := runCoord(t, nil, coordArgs(cleanDir, cleanSum, 4)...); code != 0 || killed {
		t.Fatalf("clean coordinated run: exit %d, killed=%v\n%s", code, killed, errOut)
	}
	cleanBytes, err := os.ReadFile(cleanSum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refSum, cleanBytes) {
		t.Fatalf("coordinated summary differs from single-process run:\n%s\nwant:\n%s", cleanBytes, refSum)
	}
	shardCkpt, err := os.ReadFile(shard.CheckpointPath(cleanDir, shard.Assignment{Index: 1, Of: 4}))
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range []int64{0, int64(len(shardCkpt)) / 2, int64(len(shardCkpt)) - 1} {
		dir := t.TempDir()
		sum := filepath.Join(dir, "sum.json")
		env := []string{fmt.Sprintf("RHFLEET_SHARD_FAILPOINT=1:%d", off)}
		code, killed, errOut := runCoord(t, env, coordArgs(dir, sum, 4)...)
		if code != 0 || killed {
			t.Fatalf("offset %d: coordinator failed: exit %d, killed=%v\n%s", off, code, killed, errOut)
		}
		if !strings.Contains(errOut, "signal: killed") {
			t.Fatalf("offset %d: worker was never killed — drill is vacuous\n%s", off, errOut)
		}
		// At the final byte the kill lands after every record is
		// durable, and the coordinator rightly judges the shard
		// complete; at any earlier offset records are missing and the
		// shard MUST be reassigned.
		if off < int64(len(shardCkpt))-1 && !strings.Contains(errOut, "reassigning") {
			t.Fatalf("offset %d: dead shard was not reassigned\n%s", off, errOut)
		}
		got, err := os.ReadFile(sum)
		if err != nil {
			t.Fatalf("offset %d: no summary published: %v", off, err)
		}
		if !bytes.Equal(refSum, got) {
			t.Fatalf("offset %d: reassigned summary differs from single-process run", off)
		}
	}
}

// TestCrashShardCoordinatorKillResume SIGKILLs the coordinator
// itself mid-campaign. PDEATHSIG takes the shard workers down with it
// (no orphan outlives it), and a rerun of -coordinate over the same
// directory — no flag replay, the directory's spec.json says what to
// run — must converge to the byte-identical summary.
func TestCrashShardCoordinatorKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	refDir := t.TempDir()
	refSumPath := filepath.Join(refDir, "sum.json")
	refArgs := []string{"-mfrs", "A,B,C,D", "-modules", "4", "-exp", "hcfirst", "-scale", "tiny",
		"-seed", "7", "-quiet", "-out", filepath.Join(refDir, "fleet.jsonl"), "-summary", refSumPath}
	if code, killed := runFleet(t, -1, refArgs...); code != 0 || killed {
		t.Fatalf("reference run: exit %d, killed=%v", code, killed)
	}
	refSum, err := os.ReadFile(refSumPath)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sum := filepath.Join(dir, "sum.json")
	cmd := exec.Command(fleetBinary(t), coordArgs(dir, sum, 4)...)
	cmd.Env = os.Environ()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill the coordinator as soon as the first shard checkpoint
	// exists — mid-campaign for any realistic timing, and even a
	// late kill still drills the idempotent-restart path.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m, _ := filepath.Glob(shard.CheckpointGlob(dir)); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no shard checkpoint appeared\n%s", stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// PDEATHSIG: the orphaned workers must die with the coordinator.
	if _, err := os.Stat("/proc/self/cmdline"); err != nil {
		t.Log("no /proc: orphan check skipped")
	} else {
		orphanDeadline := time.Now().Add(5 * time.Second)
		for {
			alive := shardWorkersAlive(dir)
			if alive == 0 {
				break
			}
			if time.Now().After(orphanDeadline) {
				t.Fatalf("%d shard worker(s) still running after coordinator SIGKILL — workers orphaned", alive)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Restart: spec.json in the directory carries the campaign.
	code, killed, errOut := runCoord(t, nil, "-coordinate", "4", "-shard-dir", dir, "-quiet",
		"-lease-ttl", "2s", "-summary", sum)
	if code != 0 || killed {
		t.Fatalf("coordinator restart: exit %d, killed=%v\n%s", code, killed, errOut)
	}
	got, err := os.ReadFile(sum)
	if err != nil {
		t.Fatalf("no summary after restart: %v", err)
	}
	if !bytes.Equal(refSum, got) {
		t.Fatalf("post-crash summary differs from single-process run:\n%s\nwant:\n%s", got, refSum)
	}
}

// shardWorkersAlive counts running processes whose command line is an
// rhfleet -shard worker over dir, read from /proc. Exited processes
// (zombies included) have an empty cmdline and are not counted.
func shardWorkersAlive(dir string) int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		args := strings.Split(string(raw), "\x00")
		isShard, inDir := false, false
		for i, arg := range args {
			isShard = isShard || arg == "-shard"
			inDir = inDir || (arg == "-shard-dir" && i+1 < len(args) && args[i+1] == dir)
		}
		if isShard && inDir {
			n++
		}
	}
	return n
}

// TestCrashShardMergeRejectsForeignCampaign smuggles a shard
// checkpoint from a different campaign into a shard directory and
// requires -merge-shards to refuse with an error naming the file.
func TestCrashShardMergeRejectsForeignCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	sumA, sumB := filepath.Join(dirA, "s.json"), filepath.Join(dirB, "s.json")
	if code, killed, errOut := runCoord(t, nil, coordArgs(dirA, sumA, 2)...); code != 0 || killed {
		t.Fatalf("campaign A: exit %d killed=%v\n%s", code, killed, errOut)
	}
	argsB := coordArgs(dirB, sumB, 2)
	argsB = append(argsB, "-seed", "1234") // later flag wins: different campaign identity
	if code, killed, errOut := runCoord(t, nil, argsB...); code != 0 || killed {
		t.Fatalf("campaign B: exit %d killed=%v\n%s", code, killed, errOut)
	}
	// Replace A's shard 1 with B's.
	a1 := shard.CheckpointPath(dirA, shard.Assignment{Index: 1, Of: 2})
	b1, err := os.ReadFile(shard.CheckpointPath(dirB, shard.Assignment{Index: 1, Of: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a1, b1, 0o644); err != nil {
		t.Fatal(err)
	}
	code, killed, errOut := runCoord(t, nil, "-merge-shards", "-shard-dir", dirA, "-quiet")
	if killed || code != 1 {
		t.Fatalf("merge of mixed campaigns: exit %d killed=%v, want 1\n%s", code, killed, errOut)
	}
	if !strings.Contains(errOut, a1) || !strings.Contains(errOut, "different campaign") {
		t.Fatalf("merge error must name the offending shard file:\n%s", errOut)
	}
}
