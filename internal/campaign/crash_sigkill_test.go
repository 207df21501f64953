//go:build unix

package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"

	"rowhammer/internal/durable"
)

// TestCrashHelperProcess is not a test of its own: it is the
// subprocess body driven by TestCrashSIGKILLRandomPoints. It resumes
// the campaign from RH_CRASH_CKPT, appends new records through a
// failpoint that SIGKILLs the process after exactly RH_CRASH_FAILPOINT
// checkpoint bytes (-1 disarms), and on a full run publishes the
// summary to RH_CRASH_SUMMARY via the atomic writer — the same
// load/append/publish sequence rhfleet performs.
func TestCrashHelperProcess(t *testing.T) {
	if os.Getenv("RH_CAMPAIGN_CRASH_HELPER") != "1" {
		t.Skip("subprocess body; driven by TestCrashSIGKILLRandomPoints")
	}
	die := func(stage string, err error) {
		fmt.Fprintf(os.Stderr, "crash helper: %s: %v\n", stage, err)
		os.Exit(1)
	}
	spec := crashSpec()
	path := os.Getenv("RH_CRASH_CKPT")
	cw, rep, err := OpenCheckpoint(path, spec, 0, 0)
	if err != nil {
		die("open checkpoint", err)
	}
	if off, err := strconv.ParseInt(os.Getenv("RH_CRASH_FAILPOINT"), 10, 64); err == nil && off >= 0 {
		cw.Wrap(func(w io.Writer) io.Writer {
			return &durable.FailpointWriter{W: w, Remaining: off, OnTrip: func() error {
				// Die mid-write, exactly at the byte budget: the kernel
				// reclaims the process with no chance to clean up.
				return syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}}
		})
	}
	res, err := Run(context.Background(), spec, Options{Runner: fakeRunner(nil), Records: cw, Done: rep.Records})
	if err != nil {
		die("run", err)
	}
	if err := cw.Close(); err != nil {
		die("close checkpoint", err)
	}
	sum, err := Aggregate(res).MarshalIndent()
	if err != nil {
		die("aggregate", err)
	}
	if err := durable.AtomicWriteFile(os.Getenv("RH_CRASH_SUMMARY"), sum, 0o644); err != nil {
		die("publish summary", err)
	}
}

// runCrashHelper reexecutes the test binary as the crash helper and
// reports whether the child was killed by SIGKILL (1) or ran to
// completion (0). Any other outcome fails the test.
func runCrashHelper(t *testing.T, ckpt, sum string, failpoint int64) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelperProcess$")
	cmd.Env = append(os.Environ(),
		"RH_CAMPAIGN_CRASH_HELPER=1",
		"RH_CRASH_CKPT="+ckpt,
		"RH_CRASH_SUMMARY="+sum,
		"RH_CRASH_FAILPOINT="+strconv.FormatInt(failpoint, 10),
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
			return 1
		}
	}
	t.Fatalf("crash helper (failpoint %d) failed unexpectedly: %v\n%s", failpoint, err, stderr.Bytes())
	return 0
}

// TestCrashSIGKILLRandomPoints is the randomized half of the
// kill-anywhere guarantee: a real subprocess is SIGKILLed mid-write at
// 20+ deterministic-random checkpoint byte offsets (every third trial
// is killed a second time during its first resume), then resumed
// disarmed. Every trial's published summary must be bit-identical to
// an uninterrupted run's, and the surviving checkpoint must still load
// under the strict spec check.
func TestCrashSIGKILLRandomPoints(t *testing.T) {
	spec := crashSpec()
	refSum, full := referenceSummary(t, spec)
	prng := rand.New(rand.NewSource(0x5eed))
	const trials = 20
	kills := 0
	for trial := 0; trial < trials; trial++ {
		dir := crashDir(t)
		ckpt := filepath.Join(dir, "fleet.jsonl")
		sum := filepath.Join(dir, "summary.json")
		// The fresh run writes the full stream, so any offset strictly
		// inside it is a guaranteed kill.
		if n := runCrashHelper(t, ckpt, sum, int64(prng.Intn(len(full)))); n != 1 {
			t.Fatalf("trial %d: armed helper survived its failpoint", trial)
		}
		kills++
		if trial%3 == 0 {
			// Kill again during the resume: the torn tail from the first
			// kill is now interior, exercising newline isolation and
			// quarantine on the next load. The offset may exceed what the
			// resume still has to write, so surviving is legitimate here.
			kills += runCrashHelper(t, ckpt, sum, int64(prng.Intn(256)))
		}
		if n := runCrashHelper(t, ckpt, sum, -1); n != 0 {
			t.Fatalf("trial %d: disarmed helper was killed", trial)
		}
		got, err := os.ReadFile(sum)
		if err != nil {
			t.Fatalf("trial %d: published summary missing: %v", trial, err)
		}
		if !bytes.Equal(refSum, got) {
			t.Fatalf("trial %d: resumed summary differs from uninterrupted run\nref: %s\ngot: %s", trial, refSum, got)
		}
		rep, err := LoadCheckpointReport(ckpt, ResumeOptions{ExpectSpec: &spec})
		if err != nil {
			t.Fatalf("trial %d: final checkpoint unreadable: %v", trial, err)
		}
		if want := len(Expand(spec)); len(rep.Records) != want {
			t.Fatalf("trial %d: final checkpoint has %d records, want %d", trial, len(rep.Records), want)
		}
	}
	if kills < 20 {
		t.Fatalf("only %d SIGKILL points exercised, want >= 20", kills)
	}
}
