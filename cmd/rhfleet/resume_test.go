//go:build unix

package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestResumeIntoNewFileCarriesRecords: `-resume X -out Y` must leave Y a
// complete checkpoint of the campaign — the records adopted from X
// plus whatever ran — so a later `-resume Y -out Y` (what rhfleet's own
// exit-3 hint suggests) re-runs nothing and publishes the same summary.
func TestResumeIntoNewFileCarriesRecords(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	run := func(sum string, extra ...string) string {
		t.Helper()
		args := append([]string{"-mfrs", "A", "-modules", "2", "-exp", "hcfirst", "-scale", "tiny",
			"-seed", "7", "-quiet", "-summary", filepath.Join(dir, sum)}, extra...)
		cmd := exec.Command(fleetBinary(t), args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("rhfleet %v: %v\n%s", args, err, stderr.Bytes())
		}
		return stderr.String()
	}
	run("a.json", "-out", a)
	if got := run("b1.json", "-resume", a, "-out", b); !strings.Contains(got, "0 run, 2 resumed") {
		t.Fatalf("resume from a into b re-ran jobs:\n%s", got)
	}
	if got := run("b2.json", "-resume", b, "-out", b); !strings.Contains(got, "0 run, 2 resumed") {
		t.Fatalf("b alone does not resume the campaign:\n%s", got)
	}
	want, err := os.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sum := range []string{"b1.json", "b2.json"} {
		got, err := os.ReadFile(filepath.Join(dir, sum))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs from the first run's summary:\nwant %s\ngot  %s", sum, want, got)
		}
	}
}
