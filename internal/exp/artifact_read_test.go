package exp

import (
	"context"
	"fmt"
	"testing"

	"rowhammer/internal/artifact"
)

// tinyArtifact computes experiment id's merged artifact at test scale
// through ComputeAll, the path rhchar, rhfleet and rhserved publish.
func tinyArtifact(t *testing.T, id string) *artifact.Artifact {
	t.Helper()
	e := ByID(id)
	if e == nil {
		t.Fatalf("experiment %s missing", id)
	}
	a, err := e.ComputeAll(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// val returns value name of the row keyed key, failing the test when
// the row or the value is missing: artifact.Row.V reads a missing name
// as 0, which would let a mistyped key pass or fail an assertion
// silently.
func val(t testing.TB, a *artifact.Artifact, key, name string) float64 {
	t.Helper()
	r := a.Row(key)
	if r == nil {
		t.Fatalf("%s artifact: no row %q", a.Experiment, key)
		return 0
	}
	v, ok := r.Values[name]
	if !ok {
		t.Fatalf("%s artifact: row %q has no value %q", a.Experiment, key, name)
	}
	return v
}

// series returns the points of the series keyed key, failing the test
// when the series is missing (a present series may be empty).
func series(t testing.TB, a *artifact.Artifact, key string) []float64 {
	t.Helper()
	for _, s := range a.Series {
		if s.Key == key {
			return s.Points
		}
	}
	t.Fatalf("%s artifact: no series %q", a.Experiment, key)
	return nil
}

// fatalRecorder is a testing.TB whose Fatalf records instead of
// stopping, so the helpers' failure paths can be observed.
type fatalRecorder struct {
	testing.TB
	msgs []string
}

func (r *fatalRecorder) Helper() {}

func (r *fatalRecorder) Fatalf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func TestArtifactReadersFailOnMissingKeys(t *testing.T) {
	a := artifact.New("A")
	a.Experiment = "demo"
	a.AddRow("mfr=A").Set("zero", 0)
	a.AddSeries("mfr=A/empty", nil)

	var rec fatalRecorder
	if v := val(&rec, a, "mfr=A", "zero"); v != 0 || len(rec.msgs) != 0 {
		t.Fatalf("present zero value: got %v, failures %q", v, rec.msgs)
	}
	if pts := series(&rec, a, "mfr=A/empty"); len(pts) != 0 || len(rec.msgs) != 0 {
		t.Fatalf("present empty series: got %v, failures %q", pts, rec.msgs)
	}
	val(&rec, a, "mfr=B", "zero")
	val(&rec, a, "mfr=A", "zer0")
	series(&rec, a, "mfr=A/missing")
	if len(rec.msgs) != 3 {
		t.Fatalf("want 3 failures (missing row, value, series), got %q", rec.msgs)
	}
}
