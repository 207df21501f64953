package rowhammer

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestFillMeasureDefaults(t *testing.T) {
	custom := Scale{RowsPerRegion: 7, Regions: 1, Hammers: 10, MaxHammers: 20, Repetitions: 1, ModulesPerMfr: 1}
	customG := Geometry{Banks: 2, RowsPerBank: 64, SubarrayRows: 32, Chips: 4, ChipWidth: 16, ColumnsPerRow: 8}
	cases := []struct {
		name      string
		scale     Scale
		geom      Geometry
		seed      uint64
		temps     []float64
		wantScale Scale
		wantGeom  Geometry
		wantSeed  uint64
		wantTemps []float64
	}{
		{
			name:      "all zero fills every default",
			wantScale: DefaultScale(), wantGeom: DefaultDDR4Geometry(),
			wantSeed: DefaultSeed, wantTemps: StudyTemps(),
		},
		{
			name:  "explicit values survive",
			scale: custom, geom: customG, seed: 42, temps: []float64{60, 70},
			wantScale: custom, wantGeom: customG, wantSeed: 42, wantTemps: []float64{60, 70},
		},
		{
			name:  "partial zero fills only the zero knobs",
			scale: custom, seed: 0, temps: nil,
			wantScale: custom, wantGeom: DefaultDDR4Geometry(),
			wantSeed: DefaultSeed, wantTemps: StudyTemps(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scale, geom, seed, temps := tc.scale, tc.geom, tc.seed, tc.temps
			if err := FillMeasureDefaults(&scale, &geom, &seed, &temps); err != nil {
				t.Fatal(err)
			}
			if scale != tc.wantScale {
				t.Errorf("scale = %+v, want %+v", scale, tc.wantScale)
			}
			if geom != tc.wantGeom {
				t.Errorf("geom = %+v, want %+v", geom, tc.wantGeom)
			}
			if seed != tc.wantSeed {
				t.Errorf("seed = %d, want %d", seed, tc.wantSeed)
			}
			if !reflect.DeepEqual(temps, tc.wantTemps) {
				t.Errorf("temps = %v, want %v", temps, tc.wantTemps)
			}
		})
	}
}

func TestFillMeasureDefaultsNilKnobs(t *testing.T) {
	// Nil pointers must be skipped, not dereferenced.
	seed := uint64(0)
	if err := FillMeasureDefaults(nil, nil, &seed, nil); err != nil {
		t.Fatal(err)
	}
	if seed != DefaultSeed {
		t.Fatalf("seed = %d", seed)
	}
}

func TestTempGridRejectsBadSteps(t *testing.T) {
	// Regression: a zero or negative step used to either loop forever
	// (lo < hi) or silently produce an empty sweep (lo > hi). Both now
	// fail with the typed *TempStepError.
	for _, tc := range []struct{ lo, hi, step float64 }{
		{50, 90, 0},  // would loop forever
		{50, 90, -5}, // would loop forever (t decreases away from hi)
		{90, 50, -5}, // would silently produce an empty sweep
		{90, 50, 5},  // inverted range: empty sweep
	} {
		_, err := TempGrid(tc.lo, tc.hi, tc.step)
		var tse *TempStepError
		if !errors.As(err, &tse) {
			t.Fatalf("TempGrid(%g, %g, %g) = %v, want *TempStepError", tc.lo, tc.hi, tc.step, err)
		}
	}
	got, err := TempGrid(50, 90, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, StudyTemps()) {
		t.Fatalf("TempGrid(50,90,5) = %v, want StudyTemps", got)
	}
	if one, err := TempGrid(70, 70, 5); err != nil || !reflect.DeepEqual(one, []float64{70}) {
		t.Fatalf("degenerate single-point grid = %v, %v", one, err)
	}
}

func TestFillMeasureDefaultsRejectsDescendingTemps(t *testing.T) {
	for _, temps := range [][]float64{
		{90, 80, 70},     // descending
		{50, 60, 60, 70}, // duplicate point (zero step)
		{50, 70, 60},     // non-monotonic
	} {
		in := append([]float64(nil), temps...)
		err := FillMeasureDefaults(nil, nil, nil, &in)
		var tse *TempStepError
		if !errors.As(err, &tse) {
			t.Fatalf("FillMeasureDefaults(temps=%v) = %v, want *TempStepError", temps, err)
		}
	}
}

func TestCampaignRejectsDescendingTemps(t *testing.T) {
	// The typed error must surface before any job runs — RunCampaign,
	// the engine lowering, and the checkpoint helpers all reject it.
	spec := CampaignSpec{Kind: CampaignBER, Mfrs: []string{"A"}, ModulesPerMfr: 1,
		Scale: TinyScale(), Geometry: TinyGeometry(), Temps: []float64{90, 70, 50}}
	var tse *TempStepError
	if _, err := RunCampaign(context.Background(), spec, CampaignOptions{}); !errors.As(err, &tse) {
		t.Fatalf("RunCampaign = %v, want *TempStepError", err)
	}
	if _, _, err := CampaignEngine(spec); !errors.As(err, &tse) {
		t.Fatalf("CampaignEngine = %v, want *TempStepError", err)
	}
	if _, err := CreateCampaignCheckpoint("/nonexistent/nope.jsonl", spec); !errors.As(err, &tse) {
		t.Fatalf("CreateCampaignCheckpoint = %v, want *TempStepError", err)
	}
}

// TestTempGridPointLimit: a sweep records each cell's temperatures as
// a 32-bit mask, so a 33-point grid is rejected with a typed error at
// every layer — normalization, campaign lowering and the sweep itself
// — while a 32-point grid still runs and records its last point.
func TestTempGridPointLimit(t *testing.T) {
	long, err := TempGrid(50, 90, 1.25)
	if err != nil || len(long) != MaxSweepTemps+1 {
		t.Fatalf("TempGrid(50, 90, 1.25) = %d points, %v; want %d", len(long), err, MaxSweepTemps+1)
	}
	var tge *TempGridSizeError
	if err := ValidateTempGrid(long); !errors.As(err, &tge) || tge.Points != len(long) {
		t.Fatalf("ValidateTempGrid(33 points) = %v, want *TempGridSizeError", err)
	}
	in := append([]float64(nil), long...)
	if err := FillMeasureDefaults(nil, nil, nil, &in); !errors.As(err, &tge) {
		t.Fatalf("FillMeasureDefaults(33 points) = %v, want *TempGridSizeError", err)
	}
	spec := CampaignSpec{Kind: CampaignBER, Mfrs: []string{"A"}, ModulesPerMfr: 1,
		Scale: TinyScale(), Geometry: TinyGeometry(), Temps: long}
	if _, _, err := CampaignEngine(spec); !errors.As(err, &tge) {
		t.Fatalf("CampaignEngine(33 points) = %v, want *TempGridSizeError", err)
	}
	if _, err := RunCampaign(context.Background(), spec, CampaignOptions{}); !errors.As(err, &tge) {
		t.Fatalf("RunCampaign(33 points) = %v, want *TempGridSizeError", err)
	}

	// Each worker count sweeps a bench of its own: a sweep leaves the
	// chamber at 50 °C but not in its construction state, so a second
	// sweep on the same bench measures at slightly different settled
	// temperatures.
	newTester := func(workers int) *Tester {
		b, err := NewBench(BenchConfig{Profile: ProfileByName("A"), Seed: 7, Geometry: TinyGeometry()})
		if err != nil {
			t.Fatal(err)
		}
		tester := NewTester(b)
		tester.SetWorkers(workers)
		return tester
	}
	cfg := TempSweepConfig{Victims: []int{40}, Temps: long, Hammers: 300_000, Pattern: PatCheckered, Repetitions: 1}
	for _, workers := range []int{1, 2} {
		tester := newTester(workers)
		if _, err := tester.TemperatureSweep(context.Background(), cfg); !errors.As(err, &tge) {
			t.Fatalf("workers=%d: TemperatureSweep(33 points) = %v, want *TempGridSizeError", workers, err)
		}
	}

	cfg.Temps = long[:MaxSweepTemps]
	if err := ValidateTempGrid(cfg.Temps); err != nil {
		t.Fatalf("ValidateTempGrid(32 points) = %v", err)
	}
	spec.Temps = cfg.Temps
	if _, _, err := CampaignEngine(spec); err != nil {
		t.Fatalf("CampaignEngine(32 points) = %v", err)
	}
	var sweeps []*TempSweepResult
	for _, workers := range []int{1, 2} {
		sweep, err := newTester(workers).TemperatureSweep(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: TemperatureSweep(32 points) = %v", workers, err)
		}
		sweeps = append(sweeps, sweep)
	}
	if !reflect.DeepEqual(sweeps[0], sweeps[1]) {
		t.Fatal("32-point sweep differs across worker counts")
	}
	last := 0
	for _, mask := range sweeps[0].Cells {
		if mask&(1<<(MaxSweepTemps-1)) != 0 {
			last++
		}
	}
	if last == 0 {
		t.Fatal("no cell recorded at the 32nd temperature; test vacuous")
	}
	if m := sweeps[0].ClusterByRange(); m.Total != len(sweeps[0].Cells) {
		t.Fatalf("clusters count %d of %d flipped cells", m.Total, len(sweeps[0].Cells))
	}
}

func TestNamedScale(t *testing.T) {
	for _, name := range []string{"tiny", "default", "paper"} {
		if _, _, ok := NamedScale(name); !ok {
			t.Errorf("NamedScale(%q) not ok", name)
		}
	}
	if _, _, ok := NamedScale("huge"); ok {
		t.Error("NamedScale accepted an unknown name")
	}
	if s, g, _ := NamedScale("default"); s != DefaultScale() || g != (Geometry{}) {
		t.Error("default scale mapping wrong")
	}
	if _, g, _ := NamedScale("tiny"); g != TinyGeometry() {
		t.Error("tiny geometry mapping wrong")
	}
}
