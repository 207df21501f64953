package rowhammer

import (
	"context"
	"reflect"
	"testing"

	"rowhammer/internal/faultmodel"
)

// parallelTestTester builds a small bench for worker-invariance tests.
func parallelTestTester(t *testing.T, workers int) *Tester {
	t.Helper()
	b, err := NewBench(BenchConfig{
		Profile: faultmodel.MfrA(),
		Seed:    0x9a11e1,
		Geometry: Geometry{
			Banks: 1, RowsPerBank: 256, SubarrayRows: 64,
			Chips: 4, ChipWidth: 8, ColumnsPerRow: 16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tester := NewTester(b)
	tester.SetWorkers(workers)
	return tester
}

// TestRowHCFirstProfileWorkerInvariance proves the parallel HCfirst
// profile is bit-identical to the serial shared-bench path: the
// hermetic per-row clones must reproduce exactly what the serial
// loop measures.
func TestRowHCFirstProfileWorkerInvariance(t *testing.T) {
	rows := []int{8, 9, 10, 20, 33, 40}
	cfg := HCFirstConfig{Pattern: PatCheckered, MaxHammers: 512_000}

	serial, err := parallelTestTester(t, 1).RowHCFirstProfile(context.Background(), 0, rows, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := parallelTestTester(t, workers).RowHCFirstProfile(context.Background(), 0, rows, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d profile diverged from serial:\nserial:   %+v\nparallel: %+v", workers, serial, par)
		}
	}
	found := 0
	for _, rhc := range serial {
		if rhc.Found {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no row found an HCfirst; invariance test vacuous")
	}
}

// TestRowHCFirstProfileWorkerInvarianceAtTemperature: the parallel
// profile measures every row at the bench's current temperature, as
// the serial loop does — not at the 50 °C the bench was built at.
func TestRowHCFirstProfileWorkerInvarianceAtTemperature(t *testing.T) {
	rows := []int{20, 40, 60, 80, 100, 140}
	profile := func(workers int) []RowHC {
		b, err := NewBench(BenchConfig{Profile: faultmodel.MfrA(), Seed: 7, Geometry: TinyGeometry()})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SetTemperature(85); err != nil {
			t.Fatal(err)
		}
		tester := NewTester(b)
		tester.SetWorkers(workers)
		p, err := tester.RowHCFirstProfile(context.Background(), 0, rows, HCFirstConfig{Pattern: PatCheckered}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	serial := profile(1)
	for _, workers := range []int{2, 3} {
		if par := profile(workers); !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d profile at 85 °C diverged from serial:\nserial:   %+v\nparallel: %+v", workers, serial, par)
		}
	}
	if len(VulnerableHCs(serial)) == 0 {
		t.Fatal("no row found an HCfirst; invariance test vacuous")
	}
}

// TestTemperatureSweepWorkerInvariance holds the sweep on 1, 2 and 4
// workers to fullReadSweep, the independent temperature-major sweep on
// one shared bench: the victim-major units — on the tester's own bench
// or on reset clones, each point starting from its chamber snapshot —
// must record the same results and cells, and leave the bench where
// the reference leaves its own, so a follow-on hammer also agrees.
func TestTemperatureSweepWorkerInvariance(t *testing.T) {
	cfg := TempSweepConfig{
		Victims:     []int{10, 21},
		Temps:       []float64{50, 65, 80},
		Hammers:     300_000,
		Pattern:     PatCheckered,
		Repetitions: 2,
	}
	ref := parallelTestTester(t, 1)
	want, err := fullReadSweep(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Cells) == 0 {
		t.Fatal("sweep observed no flips; invariance test vacuous")
	}
	// The follow-on hammer exercises the post-sweep bench state
	// (chamber restored to 50 °C, module re-patternable).
	follow := HammerConfig{Bank: 0, VictimPhys: 33, Hammers: 300_000, Pattern: PatCheckered, Trial: 1}
	wantFollow, err := ref.Hammer(follow)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		tester := parallelTestTester(t, workers)
		got, err := tester.TemperatureSweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSweep(got, want, false); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotFollow, err := tester.Hammer(follow)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(gotFollow, wantFollow, true); err != nil {
			t.Fatalf("workers=%d follow-on hammer: %v", workers, err)
		}
	}
}

// TestTemperatureSweepWorkerInvarianceOnUsedBench: successive sweeps
// on one bench agree with successive full-read sweeps on another, on 1,
// 2 and 4 workers. A sweep leaves the chamber at 50 °C but not in its
// construction state, so each sweep must settle its point snapshots
// from the bench's current chamber, as the reference's SetTemperature
// calls do; a follow-on hammer checks the state the last one leaves.
func TestTemperatureSweepWorkerInvarianceOnUsedBench(t *testing.T) {
	pats := []PatternKind{PatCheckered, PatRowStripe, PatRandom}
	sweep := func(pat PatternKind) TempSweepConfig {
		return TempSweepConfig{
			Victims: []int{100, 201}, Temps: []float64{50, 70, 90},
			Hammers: 250_000, Pattern: pat, Repetitions: 2,
		}
	}
	ref := NewTester(newBenchFor(t, "D", 35))
	var want []*TempSweepResult
	for _, pat := range pats {
		res, err := fullReadSweep(ref, sweep(pat))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) == 0 {
			t.Fatalf("%v sweep observed no flips; test vacuous", pat)
		}
		want = append(want, res)
	}
	follow := HammerConfig{Bank: 0, VictimPhys: 102, Hammers: 300_000, Pattern: PatRandom, Trial: 2}
	wantFollow, err := ref.Hammer(follow)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		tester := NewTester(newBenchFor(t, "D", 35))
		tester.SetWorkers(workers)
		for i, pat := range pats {
			got, err := tester.TemperatureSweep(context.Background(), sweep(pat))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSweep(got, want[i], false); err != nil {
				t.Fatalf("workers=%d sweep %d on a used bench: %v", workers, i, err)
			}
		}
		gotFollow, err := tester.Hammer(follow)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(gotFollow, wantFollow, true); err != nil {
			t.Fatalf("workers=%d follow-on hammer: %v", workers, err)
		}
	}
}

// TestMeasureModuleCoresWorkerInvariance runs the fleet measurement
// cores end to end at several worker counts and compares the full
// (pattern, metrics, series) outputs.
func TestMeasureModuleCoresWorkerInvariance(t *testing.T) {
	sc := MeasureScope{
		Scale: Scale{RowsPerRegion: 8, Regions: 1, Hammers: 150_000, MaxHammers: 512_000, Repetitions: 1},
		Temps: []float64{50, 70, 90},
	}
	kinds := []struct {
		name string
		run  func(*Tester) (PatternKind, map[string]float64, map[string][]float64, error)
	}{
		{"hcfirst", func(tr *Tester) (PatternKind, map[string]float64, map[string][]float64, error) {
			return tr.MeasureModuleHCFirst(context.Background(), sc)
		}},
		{"ber", func(tr *Tester) (PatternKind, map[string]float64, map[string][]float64, error) {
			return tr.MeasureModuleBER(context.Background(), sc)
		}},
		{"spatial", func(tr *Tester) (PatternKind, map[string]float64, map[string][]float64, error) {
			return tr.MeasureModuleSpatial(context.Background(), sc)
		}},
	}
	for _, k := range kinds {
		patS, metS, serS, err := k.run(parallelTestTester(t, 1))
		if err != nil {
			t.Fatalf("%s serial: %v", k.name, err)
		}
		patP, metP, serP, err := k.run(parallelTestTester(t, 3))
		if err != nil {
			t.Fatalf("%s parallel: %v", k.name, err)
		}
		if patS != patP || !reflect.DeepEqual(metS, metP) || !reflect.DeepEqual(serS, serP) {
			t.Fatalf("%s diverged across worker counts:\nserial:   %v %v\nparallel: %v %v", k.name, metS, serS, metP, serP)
		}
	}
}
