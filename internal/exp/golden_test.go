package exp

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden files from the current code:
//
//	go test ./internal/exp/ -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name)
}

// compareGolden asserts got matches the committed golden byte for
// byte. On mismatch the actual bytes are written next to the golden
// with a .actual suffix so CI can upload them for inspection.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if bytes.Equal(want, got) {
		return
	}
	actual := path + ".actual"
	if err := os.WriteFile(actual, got, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("output differs from golden %s (actual bytes in %s)\n--- want %d bytes, got %d bytes\nfirst divergence at byte %d",
		path, actual, len(want), len(got), firstDiff(want, got))
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// renderText returns the bytes `rhchar -format text` prints for e at
// cfg: the merged artifact ComputeAll returns, encoded as text.
func renderText(t *testing.T, e Experiment, cfg Config) []byte {
	t.Helper()
	a, err := e.ComputeAll(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Encode(a, "text")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenText locks every experiment's rendered text at tiny scale:
// the refactor onto the artifact pipeline must keep output
// byte-identical to the pre-refactor printers.
func TestGoldenText(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			compareGolden(t, goldenPath(e.ID+".txt"), renderText(t, e, tinyConfig()))
		})
	}
}

// TestGoldenTextWorkerInvariance re-renders a per-manufacturer
// experiment, whose shards ComputeAll fans out on the worker pool, at
// several worker counts: results must not depend on scheduling.
func TestGoldenTextWorkerInvariance(t *testing.T) {
	for _, workers := range []int{1, 3} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig()
			cfg.Workers = workers
			compareGolden(t, goldenPath("fig5.txt"), renderText(t, *ByID("fig5"), cfg))
		})
	}
}
