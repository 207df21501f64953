//go:build unix

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rowhammer/internal/campaign"
	"rowhammer/internal/shard"
)

// The cross-machine drill: shard workers own their shards through the
// coordinator's fenced lease service over loopback HTTP, with
// deterministic network chaos (partitions, drops, lost
// responses) injected into the lease path and SIGKILLs landing
// mid-checkpoint-write — and the merged summary must still be
// byte-identical to a single-process run. Tests are named
// TestCrashShardNet* so they ride both `make crash` (-run Crash) and
// `make chaos-net` (-run TestCrashShardNet).

// coordNetArgs is coordArgs plus a self-hosted lease service: the
// coordinator listens on an ephemeral loopback port and hands every
// worker its URL via -lease-url.
func coordNetArgs(dir, sum string, shards int) []string {
	return append(coordArgs(dir, sum, shards), "-lease-listen", "127.0.0.1:0")
}

// netCrashDir returns the drill's shard directory. When RH_CRASH_DIR
// is set (the `make chaos-net` target), checkpoints and fence files
// land there so CI can upload them from failed runs; otherwise
// t.TempDir keeps everything ephemeral.
func netCrashDir(t *testing.T) string {
	t.Helper()
	base := os.Getenv("RH_CRASH_DIR")
	if base == "" {
		return t.TempDir()
	}
	dir, err := os.MkdirTemp(base, filepath.Base(t.Name())+"-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
		}
	})
	return dir
}

// netRefSummary runs the single-process reference campaign and
// returns its summary bytes — the bar every chaotic run must meet.
func netRefSummary(t *testing.T) []byte {
	t.Helper()
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
	return refSum
}

// auditShards loads every shard checkpoint and requires zero
// duplicate records (no zombie append survived dedup by landing
// twice) and a fencing token on every record of every remote-lease
// shard; it returns the per-shard fence-file high-water marks.
func auditShards(t *testing.T, dir string, shards int) map[int]uint64 {
	t.Helper()
	fences := make(map[int]uint64, shards)
	for _, a := range shard.Partition(shards) {
		rep, err := campaign.LoadCheckpointReport(shard.CheckpointPath(dir, a), campaign.ResumeOptions{})
		if err != nil {
			t.Fatalf("shard %s: loading checkpoint: %v", a, err)
		}
		if rep.DuplicateRecords != 0 {
			t.Fatalf("shard %s: %d duplicate record(s) — a superseded writer published", a, rep.DuplicateRecords)
		}
		for key, rec := range rep.Records {
			if rec.Fence == 0 {
				t.Fatalf("shard %s: record %s carries no fencing token", a, key)
			}
		}
		tok, err := shard.ReadFence(shard.FencePath(dir, a))
		if err != nil {
			t.Fatalf("shard %s: reading fence: %v", a, err)
		}
		fences[a.Index] = tok
	}
	return fences
}

// TestCrashShardNetRemoteLeaseParity: a coordinated run whose shard
// ownership lives entirely in the self-hosted lease service
// converges byte-identically to the
// single-process run, every record carries the generation-0 fencing
// token, and every fence file sits at the first token.
func TestCrashShardNetRemoteLeaseParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	refSum := netRefSummary(t)

	dir := netCrashDir(t)
	sum := filepath.Join(dir, "sum.json")
	code, killed, errOut := runCoord(t, nil, coordNetArgs(dir, sum, 4)...)
	if code != 0 || killed {
		t.Fatalf("remote-lease run: exit %d, killed=%v\n%s", code, killed, errOut)
	}
	if !strings.Contains(errOut, "lease service listening on http://127.0.0.1:") {
		t.Fatalf("coordinator never announced the lease service\n%s", errOut)
	}
	if !strings.Contains(errOut, "remote lease acquired, fencing token 1") {
		t.Fatalf("no worker reported a remote lease — flock fallback?\n%s", errOut)
	}
	got, err := os.ReadFile(sum)
	if err != nil {
		t.Fatalf("no summary published: %v", err)
	}
	if !bytes.Equal(refSum, got) {
		t.Fatalf("remote-lease summary differs from single-process run:\n%s\nwant:\n%s", got, refSum)
	}
	for idx, tok := range auditShards(t, dir, 4) {
		if tok != 1 {
			t.Fatalf("shard %d: fence file at token %d, want 1 (no reassignment happened)", idx, tok)
		}
	}
}

// TestCrashShardNetPartitionReassign arms a never-healing one-way
// partition on one shard's generation-0 worker: its lease requests
// are delivered (the service grants token 1) but every response is
// lost, so the worker can never learn it owns the shard and dies.
// The coordinator must reassign; the successor patiently waits out
// the orphaned lease, acquires token 2, and the merged summary is
// byte-identical — the partitioned zombie published nothing.
func TestCrashShardNetPartitionReassign(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	refSum := netRefSummary(t)

	dir := netCrashDir(t)
	sum := filepath.Join(dir, "sum.json")
	env := []string{"RHFLEET_SHARD_NETCHAOS=1:partition=0:-1"}
	code, killed, errOut := runCoord(t, env, coordNetArgs(dir, sum, 4)...)
	if code != 0 || killed {
		t.Fatalf("partition drill: exit %d, killed=%v\n%s", code, killed, errOut)
	}
	if !strings.Contains(errOut, "network chaos active") {
		t.Fatalf("chaos profile was never armed — drill is vacuous\n%s", errOut)
	}
	if !strings.Contains(errOut, "reassigning") {
		t.Fatalf("partitioned shard was never reassigned\n%s", errOut)
	}
	got, err := os.ReadFile(sum)
	if err != nil {
		t.Fatalf("no summary published: %v", err)
	}
	if !bytes.Equal(refSum, got) {
		t.Fatalf("post-partition summary differs from single-process run:\n%s\nwant:\n%s", got, refSum)
	}
	fences := auditShards(t, dir, 4)
	// The partitioned shard's successor holds token 2: token 1 was
	// granted to the zombie (its acquire request got through) and aged
	// out unused.
	if fences[1] < 2 {
		t.Fatalf("shard 1 fence at token %d, want >= 2 (successor never superseded the zombie)", fences[1])
	}
	rep, err := campaign.LoadCheckpointReport(
		shard.CheckpointPath(dir, shard.Assignment{Index: 1, Of: 4}), campaign.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for key, rec := range rep.Records {
		if rec.Fence < 2 {
			t.Fatalf("shard 1 record %s has fence %d — written by the partitioned zombie?", key, rec.Fence)
		}
	}
}

// TestCrashShardNetKillUnderFlaky runs one shard's generation-0
// worker under a transiently lossy lease network (drops, lost
// responses, 503s, latency over a bounded prefix) and SIGKILLs it
// mid-checkpoint-write. The successor must wait out the killed
// worker's still-held lease, take the shard under a higher fencing
// token, and converge byte-identically with no duplicate records.
func TestCrashShardNetKillUnderFlaky(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	refSum := netRefSummary(t)

	// A clean remote-lease run measures a shard checkpoint so the kill
	// offset lands inside real writes.
	cleanDir := t.TempDir()
	cleanSum := filepath.Join(cleanDir, "sum.json")
	if code, killed, errOut := runCoord(t, nil, coordNetArgs(cleanDir, cleanSum, 4)...); code != 0 || killed {
		t.Fatalf("clean remote run: exit %d, killed=%v\n%s", code, killed, errOut)
	}
	shardCkpt, err := os.ReadFile(shard.CheckpointPath(cleanDir, shard.Assignment{Index: 1, Of: 4}))
	if err != nil {
		t.Fatal(err)
	}

	dir := netCrashDir(t)
	sum := filepath.Join(dir, "sum.json")
	env := []string{
		fmt.Sprintf("RHFLEET_SHARD_FAILPOINT=1:%d", int64(len(shardCkpt))/2),
		"RHFLEET_SHARD_NETCHAOS=1:flaky+seed=11+maxops=25",
	}
	code, killed, errOut := runCoord(t, env, coordNetArgs(dir, sum, 4)...)
	if code != 0 || killed {
		t.Fatalf("flaky+kill drill: exit %d, killed=%v\n%s", code, killed, errOut)
	}
	if !strings.Contains(errOut, "signal: killed") {
		t.Fatalf("worker was never killed — drill is vacuous\n%s", errOut)
	}
	if !strings.Contains(errOut, "reassigning") {
		t.Fatalf("killed shard was never reassigned\n%s", errOut)
	}
	got, err := os.ReadFile(sum)
	if err != nil {
		t.Fatalf("no summary published: %v", err)
	}
	if !bytes.Equal(refSum, got) {
		t.Fatalf("post-kill summary differs from single-process run:\n%s\nwant:\n%s", got, refSum)
	}
	fences := auditShards(t, dir, 4)
	if fences[1] < 2 {
		t.Fatalf("shard 1 fence at token %d, want >= 2 (successor never superseded the killed worker)", fences[1])
	}
}
