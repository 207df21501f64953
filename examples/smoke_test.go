// Package examples holds no code of its own: its test builds every
// example program under this directory and runs it, so an example that
// stops compiling, fails, writes to stderr or prints a different
// report on a second run fails the suite.
package examples

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRunDeterministically builds each examples/* main into a
// temporary directory and runs it twice: both runs must exit 0 with an
// empty stderr and the same non-empty stdout.
func TestExamplesRunDeterministically(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, err := os.Stat(filepath.Join(e.Name(), "main.go")); e.IsDir() && err == nil {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no example programs found")
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./"+n)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build examples: %v\n%s", err, out)
	}
	for _, n := range names {
		t.Run(n, func(t *testing.T) {
			var first []byte
			for run := 1; run <= 2; run++ {
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(filepath.Join(bin, n))
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("run %d: %v\nstderr:\n%s", run, err, stderr.Bytes())
				}
				if stderr.Len() > 0 {
					t.Fatalf("run %d wrote to stderr:\n%s", run, stderr.Bytes())
				}
				if stdout.Len() == 0 {
					t.Fatalf("run %d printed nothing", run)
				}
				if run == 1 {
					first = stdout.Bytes()
				} else if !bytes.Equal(first, stdout.Bytes()) {
					t.Fatalf("stdout differs between runs:\n--- run 1\n%s--- run 2\n%s", first, stdout.Bytes())
				}
			}
		})
	}
}
