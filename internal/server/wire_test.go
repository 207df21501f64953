package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	rh "rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/exp"
)

// TestResolveExperiment: measurement kinds win bare-name collisions
// (the wcdp measurement kind predates the wcdp experiment), the exp:
// prefix forces the experiment, and unknown names resolve to nothing.
func TestResolveExperiment(t *testing.T) {
	cases := []struct {
		kind string
		want string // experiment ID, "" = measurement/unknown
	}{
		{"hcfirst", ""},
		{"ber", ""},
		{"wcdp", ""}, // collision: measurement kind wins
		{"spatial", ""},
		{"fig5", "fig5"},
		{"table3", "table3"},
		{"exp:wcdp", "wcdp"}, // explicit prefix selects the experiment
		{"exp:fig5", "fig5"},
		{"nosuch", ""},
		{"exp:nosuch", ""},
	}
	for _, c := range cases {
		e := ResolveExperiment(c.kind)
		got := ""
		if e != nil {
			got = e.ID
		}
		if got != c.want {
			t.Errorf("ResolveExperiment(%q) = %q, want %q", c.kind, got, c.want)
		}
	}
}

func TestSpecCampaignSpec(t *testing.T) {
	wire := Spec{
		Kind: "ber", Mfrs: []string{"A", "B"}, ModulesPerMfr: 2, Seed: 7,
		Scale: "tiny", Temps: []float64{50, 55}, Workers: 3, MaxRetries: 2,
		JobTimeoutMS: 1500, RetryBackoffMS: 10, BreakerThreshold: 3, WatchdogFactor: 2,
	}
	spec, err := wire.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Scale != rh.TinyScale() || spec.Geometry != rh.TinyGeometry() {
		t.Error("tiny scale not applied")
	}
	if spec.JobTimeout != 1500*time.Millisecond || spec.RetryBackoff != 10*time.Millisecond {
		t.Errorf("durations not lowered: %v %v", spec.JobTimeout, spec.RetryBackoff)
	}
	if spec.Kind != "ber" || spec.Seed != 7 || spec.Workers != 3 {
		t.Errorf("fields lost: %+v", spec)
	}
	if _, err := (Spec{Scale: "huge"}).CampaignSpec(); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestResolveValidation(t *testing.T) {
	if _, err := Resolve(rh.CampaignSpec{Kind: "nosuch"}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Bad temperature grids are rejected here, before any job runs.
	var tse *rh.TempStepError
	_, err := Resolve(rh.CampaignSpec{Kind: "ber", Temps: []float64{90, 70, 50}})
	if !errors.As(err, &tse) {
		t.Errorf("descending temps: want *TempStepError, got %v", err)
	}
	// A grid longer than a sweep's 32-bit per-cell mask is rejected too.
	long, err := rh.TempGrid(50, 90, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	var tge *rh.TempGridSizeError
	if _, err := Resolve(rh.CampaignSpec{Kind: "ber", Temps: long}); !errors.As(err, &tge) {
		t.Errorf("%d-point grid: want *TempGridSizeError, got %v", len(long), err)
	}
	// Experiment kinds resolve with their fleet identity.
	rsv, err := Resolve(rh.CampaignSpec{Kind: "fig5", Scale: rh.TinyScale(), Geometry: rh.TinyGeometry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rsv.Exp == nil || rsv.Exp.ID != "fig5" || rsv.Spec.Kind != exp.FleetKind("fig5") {
		t.Fatalf("fig5 resolution wrong: %+v", rsv.Spec)
	}
	if rsv.Runner == nil {
		t.Fatal("nil runner")
	}
}

// TestResolveAcceptsEveryExperiment: every registry experiment
// resolves by its exp: kind, and by its bare ID — to the experiment,
// or to the measurement kind that wins a name collision (wcdp).
func TestResolveAcceptsEveryExperiment(t *testing.T) {
	for _, e := range exp.All() {
		for _, kind := range []string{e.ID, exp.FleetKind(e.ID)} {
			rsv, err := Resolve(rh.CampaignSpec{Kind: kind, Scale: rh.TinyScale(), Geometry: rh.TinyGeometry(), Seed: 1})
			if err != nil {
				t.Errorf("Resolve(%q): %v", kind, err)
				continue
			}
			switch {
			case rsv.Exp != nil && rsv.Exp.ID == e.ID && rsv.Spec.Kind == exp.FleetKind(e.ID):
			case rsv.Exp == nil && kind == e.ID && rsv.Spec.Kind == e.ID:
			default:
				t.Errorf("Resolve(%q) = kind %q, experiment %v", kind, rsv.Spec.Kind, rsv.Exp)
			}
		}
	}
}

// TestDeliverable: a finished campaign's deliverable is, for fig5,
// the json artifact ComputeAll encodes (what `rhchar -format json`
// prints) and, for a measurement kind, RunCampaign's fleet summary
// plus a newline in every format.
func TestDeliverable(t *testing.T) {
	ctx := context.Background()
	run := func(spec rh.CampaignSpec) (Resolved, *campaign.Result) {
		t.Helper()
		rsv, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := campaign.Run(ctx, rsv.Spec, campaign.Options{Runner: rsv.Runner})
		if err != nil {
			t.Fatal(err)
		}
		return rsv, res
	}

	rsv, res := run(rh.CampaignSpec{Kind: "fig5", Scale: rh.TinyScale(), Geometry: rh.TinyGeometry(), Seed: 1})
	got, err := rsv.Deliverable(res, "json")
	if err != nil {
		t.Fatal(err)
	}
	if want := fig5Bytes(t); !bytes.Equal(got, want) {
		t.Errorf("fig5 deliverable differs from ComputeAll's artifact:\ngot  %s\nwant %s", got, want)
	}
	if _, err := rsv.Deliverable(res, "yaml"); err == nil {
		t.Error("unknown artifact format accepted")
	}

	spec := rh.CampaignSpec{Kind: "ber", Mfrs: []string{"A", "B"}, ModulesPerMfr: 1, Scale: rh.TinyScale(), Geometry: rh.TinyGeometry(), Seed: 1}
	rsv, res = run(spec)
	ref, err := rh.RunCampaign(ctx, spec, rh.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Summary.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	for _, format := range []string{"json", "tsv", "text"} {
		got, err := rsv.Deliverable(res, format)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("ber deliverable (%s) differs from the RunCampaign summary:\ngot  %s\nwant %s", format, got, want)
		}
	}
}

// hugeSpec is an 82-byte submission asking for 2×2⁴⁰ jobs: expanding
// it exhausts any machine's memory, so the tests below only resolve
// it, never expand it.
const hugeSpec = `{"kind":"hcfirst","mfrs":["A","B"],"modules_per_mfr":1099511627776,"scale":"tiny"}`

// TestResolveRejectsHugeJobCount: a spec whose job count exceeds
// campaign.MaxJobs — including one whose mfrs × modules product
// overflows — is rejected by Resolve with a *campaign.JobCountError,
// before anything expands its jobs. A spec at the bound resolves.
func TestResolveRejectsHugeJobCount(t *testing.T) {
	var ws Spec
	if err := json.Unmarshal([]byte(hugeSpec), &ws); err != nil {
		t.Fatal(err)
	}
	over := Spec{Kind: "ber", Mfrs: []string{"A", "B", "C"}, ModulesPerMfr: campaign.MaxJobs/3 + 1, Scale: "tiny"}
	overflow := Spec{Kind: "hcfirst", Mfrs: []string{"A", "B", "C", "D"}, ModulesPerMfr: math.MaxInt/2 + 1, Scale: "tiny"}
	for name, s := range map[string]Spec{"82-byte spec": ws, "one past the bound": over, "overflowing product": overflow} {
		raw, err := s.CampaignSpec()
		if err != nil {
			t.Fatal(err)
		}
		var jce *campaign.JobCountError
		if _, err := Resolve(raw); !errors.As(err, &jce) {
			t.Errorf("%s: Resolve = %v, want *campaign.JobCountError", name, err)
		}
	}
	at := Spec{Kind: "ber", Mfrs: []string{"A", "B"}, ModulesPerMfr: campaign.MaxJobs / 2, Scale: "tiny"}
	raw, err := at.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(raw); err != nil {
		t.Errorf("spec of exactly %d jobs: %v", campaign.MaxJobs, err)
	}
}

// TestSpecStrictOnBothEntryPoints: an rhfleet -spec file and a POST
// /v1/campaigns body decode through one strict decoder, so a typo'd
// field or trailing junk is refused by both alike instead of the file
// silently running with defaults.
func TestSpecStrictOnBothEntryPoints(t *testing.T) {
	ts, mgr, _ := newTestServer(t, ManagerConfig{})
	for name, body := range map[string]string{
		"unknown field": `{"kind":"hcfirst","mfrs":["A"],"modules_per_mf":2,"scale":"tiny"}`,
		"trailing data": `{"kind":"hcfirst","mfrs":["A"],"modules_per_mfr":2,"scale":"tiny"} {}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spec.json")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if ws, err := ReadSpec(path); err == nil {
				t.Errorf("ReadSpec accepted %s as %+v", body, ws)
			}
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST /v1/campaigns = %d, want 400", resp.StatusCode)
			}
		})
	}
	if got := mgr.Statuses(); len(got) != 0 {
		t.Fatalf("rejected specs queued %d campaign(s)", len(got))
	}

	// The well-formed spec both refusals were one edit away from
	// reads back field for field.
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(`{"kind":"hcfirst","mfrs":["A"],"modules_per_mfr":2,"scale":"tiny"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ws, err := ReadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Spec{Kind: "hcfirst", Mfrs: []string{"A"}, ModulesPerMfr: 2, Scale: "tiny"}); !reflect.DeepEqual(ws, want) {
		t.Fatalf("ReadSpec = %+v, want %+v", ws, want)
	}
}
