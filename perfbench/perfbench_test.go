package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildServer builds the enclosing repository's rhserved.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rhserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rhserved")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build rhserved: %v\n%s", err, out)
	}
	return bin
}

func TestWorkloadsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real rhserved")
	}
	ref, err := loadCommitted("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	o := options{bin: buildServer(t), workdir: t.TempDir(), seed: defaultSeed, seconds: 1, ref: ref}
	for _, w := range workloads {
		res, err := runWorkload(context.Background(), o, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
	}
}

func TestTracedCountsRepeat(t *testing.T) {
	exact := []string{"dram.acts", "dram.flips_injected", "campaign.ckpt_appends", "campaign.retries", "shard.respawns"}
	for _, name := range []string{"measure-mix", "sharded-mix"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]map[string]metric
		for k := range runs {
			l := &layers{}
			out, _, err := replay(context.Background(), w, defaultSeed, t.TempDir(), l)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if bad, err := l.phasePass(context.Background(), w, defaultSeed, out); err != nil || bad != 0 {
				t.Fatalf("%s phase pass: %d jobs differ, %v", name, bad, err)
			}
			runs[k] = l.metrics(w)
		}
		for _, m := range exact {
			if runs[0][m] != runs[1][m] {
				t.Errorf("%s %s: %v then %v", name, m, runs[0][m].Value, runs[1][m].Value)
			}
		}
		if got, want := runs[0]["campaign.ckpt_appends"].Value, float64(16*w.replay); got != want {
			t.Errorf("%s campaign.ckpt_appends = %v, want one per job (%v)", name, got, want)
		}
	}
}
