package attack

import (
	"context"
	"testing"

	rh "rowhammer"
	"rowhammer/internal/dram"
)

func smallBench(t *testing.T, mfr string, seed uint64) *rh.Bench {
	t.Helper()
	b, err := rh.NewBench(rh.BenchConfig{
		Profile: rh.ProfileByName(mfr),
		Seed:    seed,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 256, SubarrayRows: 256,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAggressorRows(t *testing.T) {
	if got := AggressorRows(SingleSided, 100, 0); len(got) != 1 || got[0] != 99 {
		t.Fatalf("single-sided = %v", got)
	}
	if got := AggressorRows(DoubleSided, 100, 0); len(got) != 2 || got[0] != 99 || got[1] != 101 {
		t.Fatalf("double-sided = %v", got)
	}
	many := AggressorRows(ManySided, 100, 4)
	if len(many) != 4 {
		t.Fatalf("many-sided = %v", many)
	}
	seen := map[int]bool{}
	for _, r := range many {
		if r == 100 || seen[r] {
			t.Fatalf("many-sided rows invalid: %v", many)
		}
		seen[r] = true
	}
}

func TestPlannerInformedBeatsUninformed(t *testing.T) {
	b := smallBench(t, "A", 31)
	tst := rh.NewTester(b)
	rows := []int{20, 40, 60, 80, 100, 120, 140, 160}
	planner, err := BuildPlanner(context.Background(), tst, 0, rows, []float64{50, 70, 90})
	if err != nil {
		t.Fatal(err)
	}
	for _, temp := range []float64{50, 90} {
		best, bestHC, err := planner.BestRowAt(temp)
		if err != nil {
			t.Fatal(err)
		}
		median, err := planner.MedianRowAt(temp)
		if err != nil {
			t.Fatal(err)
		}
		if bestHC > median {
			t.Fatalf("at %.0f °C informed choice %d (row %d) worse than median %d", temp, bestHC, best.Row, median)
		}
	}
}

func TestPlannerNoVulnerableRows(t *testing.T) {
	p := &Planner{Temps: []float64{50}, Rows: []RowPlan{{Row: 1, HCByTemp: []int64{0}}}}
	if _, _, err := p.BestRowAt(50); err == nil {
		t.Fatal("expected error")
	}
	if _, err := p.MedianRowAt(50); err == nil {
		t.Fatal("expected error")
	}
}

func TestTempTriggerDetectsTemperature(t *testing.T) {
	b := smallBench(t, "A", 33)
	tst := rh.NewTester(b)
	victims := []int{30, 60, 90, 120, 150, 180, 210}
	sweep, err := tst.TemperatureSweep(context.Background(), rh.TempSweepConfig{
		Bank: 0, Victims: victims, Hammers: 250_000,
		Pattern: rh.PatCheckered, Repetitions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trig, err := FindTrigger(sweep, AtOrAbove, 70, 0, 250_000, rh.PatCheckered)
	if err != nil {
		t.Skipf("no at-or-above trigger cell in this sample: %v", err)
	}
	// Below target: must not fire.
	if err := b.SetTemperature(55); err != nil {
		t.Fatal(err)
	}
	fired, err := trig.Probe(tst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("trigger fired below target temperature")
	}
	// At/above target: must fire.
	if err := b.SetTemperature(80); err != nil {
		t.Fatal(err)
	}
	fired, err = trig.Probe(tst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("trigger did not fire above target temperature")
	}
}

func TestFindTriggerErrors(t *testing.T) {
	sweep := &rh.TempSweepResult{Temps: []float64{50, 55}, Cells: map[rh.CellID]uint32{}}
	if _, err := FindTrigger(sweep, ExactTemperature, 60, 0, 1000, rh.PatCheckered); err == nil {
		t.Fatal("expected error for temperature outside sweep")
	}
	if _, err := FindTrigger(sweep, ExactTemperature, 50, 0, 1000, rh.PatCheckered); err == nil {
		t.Fatal("expected error with no cells")
	}
}

func TestOnTimeWithReads(t *testing.T) {
	tm := dram.DDR4Timing()
	if got := OnTimeWithReads(tm, 0); got != tm.TRAS {
		t.Fatalf("k=0 on-time = %v", got)
	}
	// 10–15 READs should roughly 3–5× the baseline on-time (§8.1).
	on10 := OnTimeWithReads(tm, 10)
	on15 := OnTimeWithReads(tm, 15)
	if on10 <= tm.TRAS || on15 <= on10 {
		t.Fatalf("on-times not increasing: %v %v", on10, on15)
	}
	ratio := float64(on15) / float64(tm.TRAS)
	if ratio < 2 || ratio > 6 {
		t.Fatalf("15-read on-time ratio %v, want ≈3–5×", ratio)
	}
}

func TestExtendedOnTimeBeatsBaselineDefenseThreshold(t *testing.T) {
	// The headline of Improvement 3: with extended on-time, flips
	// occur at hammer counts *below* the baseline HCfirst a defense
	// was configured with.
	b := smallBench(t, "A", 35)
	tst := rh.NewTester(b)
	const victim = 100
	base, err := tst.HCFirst(rh.HCFirstConfig{Bank: 0, VictimPhys: victim, Pattern: rh.PatCheckered, Trial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Found {
		t.Skip("row not vulnerable")
	}
	tm := b.Timing()
	onNs := OnTimeWithReads(tm, 15).Nanoseconds()
	ext, err := tst.HCFirst(rh.HCFirstConfig{
		Bank: 0, VictimPhys: victim, Pattern: rh.PatCheckered, Trial: 1, AggOnNs: onNs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Found || ext.HCfirst >= base.HCfirst {
		t.Fatalf("extended on-time HCfirst %d not below baseline %d", ext.HCfirst, base.HCfirst)
	}
}

func TestFindTriggerExactTemperature(t *testing.T) {
	// Synthetic sweep: one cell flips only at index 4 (70 °C), another
	// across the whole range.
	sweep := &rh.TempSweepResult{
		Temps: []float64{50, 55, 60, 65, 70, 75, 80, 85, 90},
		Cells: map[rh.CellID]uint32{
			{Row: 10, Bit: 3}: 1 << 4,       // exactly 70 °C
			{Row: 11, Bit: 7}: (1 << 9) - 1, // full range
		},
	}
	trig, err := FindTrigger(sweep, ExactTemperature, 70, 0, 1000, rh.PatCheckered)
	if err != nil {
		t.Fatal(err)
	}
	if trig.Row != 10 || trig.Bit != 3 {
		t.Fatalf("picked wrong cell: row %d bit %d", trig.Row, trig.Bit)
	}
	// No exact cell at 55 °C (the full-range cell is not exact).
	if _, err := FindTrigger(sweep, ExactTemperature, 55, 0, 1000, rh.PatCheckered); err == nil {
		t.Fatal("expected no exact trigger at 55 °C")
	}
	// At-or-above at 50 °C: the full-range cell qualifies (lo==50,
	// censored top).
	above, err := FindTrigger(sweep, AtOrAbove, 50, 0, 1000, rh.PatCheckered)
	if err != nil {
		t.Fatal(err)
	}
	if above.Row != 11 {
		t.Fatalf("picked row %d for at-or-above", above.Row)
	}
}

// TestFindTriggerPicksLowestCell: with several qualifying cells,
// FindTrigger returns the one with the lowest (row, bit) on every
// call, whatever order the sweep's cell map yields them in.
func TestFindTriggerPicksLowestCell(t *testing.T) {
	temps := []float64{50, 55, 60, 65, 70, 75, 80, 85, 90}
	exact := uint32(1 << 4)      // flips only at 70 °C
	above := uint32(1<<9 - 1<<4) // flips from 70 °C to the top
	sweep := &rh.TempSweepResult{Temps: temps, Cells: map[rh.CellID]uint32{}}
	for _, row := range []int{650, 50, 250, 750, 40} {
		for _, bit := range []int{9, 2, 5} {
			sweep.Cells[rh.CellID{Row: row, Bit: bit}] = exact
			sweep.Cells[rh.CellID{Row: row + 1, Bit: bit}] = above
		}
	}
	sweep.Cells[rh.CellID{Row: 30, Bit: 0}] = 1<<9 - 1 // full range: neither kind
	for _, tc := range []struct {
		kind TriggerKind
		row  int
	}{{ExactTemperature, 40}, {AtOrAbove, 41}} {
		for i := 0; i < 20; i++ {
			trig, err := FindTrigger(sweep, tc.kind, 70, 0, 1000, rh.PatCheckered)
			if err != nil {
				t.Fatal(err)
			}
			if trig.Row != tc.row || trig.Bit != 2 {
				t.Fatalf("kind %v call %d: picked row %d bit %d, want row %d bit 2", tc.kind, i, trig.Row, trig.Bit, tc.row)
			}
		}
	}
}
