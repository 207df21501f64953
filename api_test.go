package rowhammer

import (
	"context"
	"errors"
	"testing"

	"rowhammer/internal/dram"
)

func TestExportedAliases(t *testing.T) {
	if len(AllPatterns) != 7 {
		t.Fatalf("AllPatterns = %d entries", len(AllPatterns))
	}
	// Alias constants must match the dram package values.
	if PatRowStripe != dram.PatRowStripe || PatRandom != dram.PatRandom {
		t.Fatal("pattern aliases diverged")
	}
	if DDR4Timing() != dram.DDR4Timing() {
		t.Fatal("DDR4Timing alias diverged")
	}
	if DDR3Timing() != dram.DDR3Timing() {
		t.Fatal("DDR3Timing alias diverged")
	}
	if DefaultDDR4Geometry() != dram.DefaultDDR4Geometry() {
		t.Fatal("geometry alias diverged")
	}
	if len(Profiles()) != 4 {
		t.Fatal("Profiles alias broken")
	}
}

func TestScalePresets(t *testing.T) {
	d := DefaultScale()
	p := PaperScale()
	if d.Hammers != 150_000 || p.Hammers != 150_000 {
		t.Fatal("BER hammer count must be the paper's 150K")
	}
	if p.MaxHammers != 512_000 {
		t.Fatal("paper caps HCfirst searches at 512K")
	}
	if p.Repetitions != 5 {
		t.Fatal("paper repeats each test five times")
	}
	if p.RowsPerRegion != 8192 || p.Regions != 3 {
		t.Fatal("paper tests first/middle/last 8K rows")
	}
	if d.RowsPerRegion >= p.RowsPerRegion {
		t.Fatal("default scale should be smaller than paper scale")
	}
}

func TestPaperGeometryValid(t *testing.T) {
	_, g, ok := NamedScale("paper")
	if !ok {
		t.Fatal(`NamedScale("paper") unknown`)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.RowsPerBank < 8192*3 {
		t.Fatal("paper geometry must host three 8K-row regions")
	}
	// The paper-scale bench must construct (it allocates per-column
	// state eagerly; keep it feasible).
	b, err := NewBench(BenchConfig{Profile: ProfileByName("A"), Seed: 1, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	rows := PaperScale().RegionRows(g)
	if len(rows) < 3*8000 {
		t.Fatalf("paper-scale regions yield %d rows", len(rows))
	}
	// One quick hammer at full geometry to prove the path works.
	res, err := NewTester(b).Hammer(HammerConfig{
		Bank: 0, VictimPhys: rows[len(rows)/2], Hammers: 150_000,
		Pattern: PatCheckered, Trial: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

func TestHCFirstNotFoundOnInvulnerableConfig(t *testing.T) {
	// With a hammer cap far below the module's HCfirst, the search
	// reports not-found rather than a bogus value.
	b := newBenchFor(t, "D", 41) // highest BaseHC
	tst := NewTester(b)
	res, err := tst.HCFirst(HCFirstConfig{
		Bank: 0, VictimPhys: 100, Pattern: PatCheckered, Trial: 1,
		MaxHammers: 2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("found HCfirst %d under a 2K cap", res.HCfirst)
	}
	if res.Probes == 0 {
		t.Fatal("search did not probe")
	}
}

// TestTemperatureSweepValidation: a sweep needs victims, and its grid
// must strictly increase, as ValidateTempGrid requires of every other
// entry point: a descending or duplicated grid would make the Cells
// masks' indexes disagree with temperature order.
func TestTemperatureSweepValidation(t *testing.T) {
	b := newBenchFor(t, "A", 43)
	if _, err := NewTester(b).TemperatureSweep(context.Background(), TempSweepConfig{Bank: 0}); err == nil {
		t.Fatal("expected error for empty victim list")
	}
	for _, temps := range [][]float64{{90, 50}, {50, 70, 70, 90}} {
		for _, workers := range []int{1, 2} {
			tester := NewTester(b)
			tester.SetWorkers(workers)
			_, err := tester.TemperatureSweep(context.Background(), TempSweepConfig{
				Victims: []int{100, 201}, Temps: temps, Hammers: 150_000, Pattern: PatCheckered,
			})
			var tse *TempStepError
			if !errors.As(err, &tse) {
				t.Fatalf("workers=%d: TemperatureSweep(%v) = %v, want *TempStepError", workers, temps, err)
			}
		}
	}
}

func TestBenchRetentionOption(t *testing.T) {
	ret := dram.DefaultRetentionConfig()
	b, err := NewBench(BenchConfig{
		Profile: ProfileByName("A"), Seed: 47, Geometry: smallGeometry(),
		Retention: &ret,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A normal-length test stays retention-clean.
	if _, err := NewTester(b).Hammer(HammerConfig{
		Bank: 0, VictimPhys: 100, Hammers: 150_000, Pattern: PatCheckered, Trial: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if n := b.Module.Stats().RetentionFlips; n != 0 {
		t.Fatalf("retention flips in a short test: %d", n)
	}
}
