package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	rh "rowhammer"
	"rowhammer/internal/exp"
)

// charBin is the rhchar binary TestMain builds once for every test:
// the tests drive the shipped command, flags and all.
var charBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "rhchar-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	charBin = filepath.Join(dir, "rhchar")
	code := 1
	if out, err := exec.Command("go", "build", "-o", charBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build rhchar: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// runChar runs rhchar and returns its stdout, stderr and exit code.
func runChar(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(charBin, args...)
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return o.Bytes(), e.Bytes(), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("rhchar %v did not run: %v", args, err)
	}
	return o.Bytes(), e.Bytes(), 0
}

func TestListNamesEveryExperiment(t *testing.T) {
	out, errOut, code := runChar(t, "-list")
	if code != 0 {
		t.Fatalf("rhchar -list: exit %d\n%s", code, errOut)
	}
	for _, e := range exp.All() {
		if !strings.Contains(string(out), "  "+e.ID+" ") {
			t.Errorf("rhchar -list does not name %s:\n%s", e.ID, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	_, errOut, code := runChar(t, "-exp", "fig99", "-scale", "tiny")
	if code != 2 || !strings.Contains(string(errOut), `rhchar: unknown experiment "fig99"`) {
		t.Fatalf("rhchar -exp fig99: exit %d, stderr %q; want exit 2 and the unknown-experiment line", code, errOut)
	}
}

// TestOutputIsTheEncodedArtifact: what rhchar prints is exactly the
// registry artifact at the named scale, passed through Encode. The
// json payload is all of stdout; the text report sits between the
// stdout banners, and -out publishes it alone. The text goldens lock
// these bytes.
func TestOutputIsTheEncodedArtifact(t *testing.T) {
	e := exp.ByID("table2")
	sc, geom, _ := rh.NamedScale("tiny")
	a, err := e.ComputeAll(context.Background(), exp.Config{Scale: sc, Geometry: geom, Seed: rh.DefaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(format string) []byte {
		b, err := e.Encode(a, format)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	run := func(args ...string) []byte {
		args = append([]string{"-exp", "table2", "-scale", "tiny"}, args...)
		out, errOut, code := runChar(t, args...)
		if code != 0 {
			t.Fatalf("rhchar %v: exit %d\n%s", args, code, errOut)
		}
		return out
	}

	if got, want := run("-format", "json"), encode("json"); !bytes.Equal(got, want) {
		t.Errorf("rhchar -format json printed\n%s\nwant\n%s", got, want)
	}
	text := encode("text")
	if got := run("-format", "text"); !bytes.Contains(got, text) {
		t.Errorf("rhchar -format text printed\n%s\nwant it to contain\n%s", got, text)
	}
	path := filepath.Join(t.TempDir(), "table2.txt")
	run("-format", "text", "-out", path)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, text) {
		t.Errorf("rhchar -format text -out published %q (%v), want\n%s", got, err, text)
	}
}
