package rowhammer

import (
	"context"
	"testing"

	"rowhammer/internal/dram"
)

// smallGeometry keeps core-library tests fast.
func smallGeometry() Geometry {
	return Geometry{Banks: 2, RowsPerBank: 512, SubarrayRows: 256, Chips: 8, ChipWidth: 8, ColumnsPerRow: 64}
}

func newBenchFor(t *testing.T, name string, seed uint64) *Bench {
	t.Helper()
	b, err := NewBench(BenchConfig{Profile: ProfileByName(name), Seed: seed, Geometry: smallGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBenchValidation(t *testing.T) {
	if _, err := NewBench(BenchConfig{}); err == nil {
		t.Fatal("expected error for missing profile")
	}
	b, err := NewBench(BenchConfig{Profile: ProfileByName("A"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Geometry() != DefaultDDR4Geometry() {
		t.Fatal("default geometry not applied")
	}
	if b.Module.Temperature() < 49 || b.Module.Temperature() > 51 {
		t.Fatalf("bench should start settled at 50 °C, got %v", b.Module.Temperature())
	}
}

func TestHammerDeterministic(t *testing.T) {
	mk := func() HammerResult {
		b := newBenchFor(t, "A", 3)
		res, err := NewTester(b).Hammer(HammerConfig{
			Bank: 0, VictimPhys: 100, Hammers: 150_000, Pattern: PatCheckered, Trial: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Victim.Count() != b.Victim.Count() {
		t.Fatalf("non-deterministic: %d vs %d flips", a.Victim.Count(), b.Victim.Count())
	}
	for i := range a.Victim.Bits {
		if a.Victim.Bits[i] != b.Victim.Bits[i] {
			t.Fatal("flip positions differ across runs")
		}
	}
}

func TestHammerValidation(t *testing.T) {
	b := newBenchFor(t, "A", 3)
	tst := NewTester(b)
	cases := []HammerConfig{
		{Bank: 99, VictimPhys: 100, Hammers: 1000},
		{Bank: 0, VictimPhys: 0, Hammers: 1000},                     // bank edge
		{Bank: 0, VictimPhys: 255, Hammers: 1000},                   // subarray edge
		{Bank: 0, VictimPhys: 256, Hammers: 1000},                   // subarray edge
		{Bank: 0, VictimPhys: 511, Hammers: 1000},                   // bank edge
		{Bank: 0, VictimPhys: 100, Hammers: -5, Pattern: PatRandom}, // negative
	}
	for _, c := range cases {
		if _, err := tst.Hammer(c); err == nil {
			t.Errorf("expected error for %+v", c)
		}
	}
}

func TestMoreHammersMoreFlips(t *testing.T) {
	b := newBenchFor(t, "A", 5)
	tst := NewTester(b)
	prev := -1
	for _, hc := range []int64{50_000, 150_000, 400_000} {
		total := 0
		for _, victim := range []int{50, 100, 150, 200} {
			res, err := tst.Hammer(HammerConfig{Bank: 0, VictimPhys: victim, Hammers: hc, Pattern: PatCheckered, Trial: 1})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Victim.Count()
		}
		if total < prev {
			t.Fatalf("flips decreased with hammer count: %d → %d", prev, total)
		}
		prev = total
	}
	if prev == 0 {
		t.Fatal("400K hammers should flip cells")
	}
}

func TestSingleSidedVictimsWeaker(t *testing.T) {
	// Across rows, double-sided victims must flip more than the ±2
	// single-sided victims (Obsv. from the original RowHammer work).
	b := newBenchFor(t, "A", 7)
	tst := NewTester(b)
	ds, ss := 0, 0
	for victim := 20; victim < 120; victim += 4 {
		res, err := tst.Hammer(HammerConfig{Bank: 0, VictimPhys: victim, Hammers: 300_000, Pattern: PatCheckered, Trial: 1})
		if err != nil {
			t.Fatal(err)
		}
		ds += res.Victim.Count()
		ss += res.SingleLo.Count() + res.SingleHi.Count()
	}
	if ds == 0 {
		t.Fatal("no double-sided flips")
	}
	if ss >= ds {
		t.Fatalf("single-sided flips %d >= double-sided %d", ss, ds)
	}
}

func TestHCFirstConsistentWithBER(t *testing.T) {
	b := newBenchFor(t, "B", 9)
	tst := NewTester(b)
	const victim = 77
	hc, err := tst.HCFirst(HCFirstConfig{Bank: 0, VictimPhys: victim, Pattern: PatCheckered, Trial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !hc.Found {
		t.Skip("row not vulnerable within 512K")
	}
	// At HCfirst there must be flips; at HCfirst - 8*accuracy there
	// must be none (monotone threshold model).
	res, err := tst.Hammer(HammerConfig{Bank: 0, VictimPhys: victim, Hammers: hc.HCfirst, Pattern: PatCheckered, Trial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Victim.Count() == 0 {
		t.Fatalf("no flips at measured HCfirst %d", hc.HCfirst)
	}
	below := hc.HCfirst - 8*HCFirstAccuracy
	if below > 0 {
		res, err = tst.Hammer(HammerConfig{Bank: 0, VictimPhys: victim, Hammers: below, Pattern: PatCheckered, Trial: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Victim.Count() != 0 {
			t.Fatalf("flips at %d, well below HCfirst %d", below, hc.HCfirst)
		}
	}
}

func TestHCFirstMinTakesMinimum(t *testing.T) {
	b := newBenchFor(t, "A", 11)
	tst := NewTester(b)
	cfg := HCFirstConfig{Bank: 0, VictimPhys: 60, Pattern: PatCheckered}
	single, err := tst.HCFirst(func() HCFirstConfig { c := cfg; c.Trial = 1; return c }())
	if err != nil {
		t.Fatal(err)
	}
	multi, err := tst.HCFirstMin(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if single.Found && (!multi.Found || multi.HCfirst > single.HCfirst) {
		t.Fatalf("min over reps %v should be <= single trial %v", multi.HCfirst, single.HCfirst)
	}
}

func TestSurveyPatternsBestBeatsAverage(t *testing.T) {
	b := newBenchFor(t, "C", 13)
	tst := NewTester(b)
	victims := []int{40, 80, 120}
	s, err := tst.SurveyPatterns(context.Background(), 0, victims, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	wc := s.Best
	count := func(p PatternKind) int {
		total := 0
		for _, v := range victims {
			res, err := tst.Hammer(HammerConfig{Bank: 0, VictimPhys: v, Hammers: 200_000, Pattern: p, Trial: 1})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Victim.Count()
		}
		return total
	}
	best := count(wc)
	for _, p := range AllPatterns {
		if c := count(p); c > best {
			t.Fatalf("pattern %v (%d flips) beats WCDP %v (%d)", p, c, wc, best)
		}
	}
}

func TestBERWorstRepetition(t *testing.T) {
	b := newBenchFor(t, "A", 15)
	tst := NewTester(b)
	cfg := HammerConfig{Bank: 0, VictimPhys: 90, Hammers: 150_000, Pattern: PatCheckered}
	worst, err := tst.BER(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 1; rep <= 3; rep++ {
		c := cfg
		c.Trial = uint64(rep)
		res, err := tst.Hammer(c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Victim.Count() > worst.Victim.Count() {
			t.Fatalf("BER %d not the worst repetition (%d)", worst.Victim.Count(), res.Victim.Count())
		}
	}
}

func TestRecoverMappingAllProfiles(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			b, err := NewBench(BenchConfig{Profile: p, Seed: 21, Geometry: smallGeometry()})
			if err != nil {
				t.Fatal(err)
			}
			tst := NewTester(b)
			// Deliberately start from an unknown mapping.
			tst.UseMapping(dram.DirectRemap{})
			scheme, err := tst.RecoverMapping(0, []int{40, 52, 100}, 16)
			if err != nil {
				t.Fatal(err)
			}
			// The recovered scheme must agree with the module's real
			// mapping on every row's neighbors.
			real := b.Module.Remap()
			for l := 8; l < 120; l++ {
				if scheme.ToPhysical(l) != real.ToPhysical(l) {
					t.Fatalf("recovered %s disagrees with real %s at row %d",
						scheme.Name(), real.Name(), l)
				}
			}
		})
	}
}

func TestAdjacencyProbeFindsPhysicalNeighbors(t *testing.T) {
	b := newBenchFor(t, "B", 23) // MirrorRemap
	tst := NewTester(b)
	const logicalRow = 24 // physical 31 under mirror: neighbors phys 30, 32 = logical 25, 32... compute below
	neighbors, err := tst.AdjacencyProbe(0, logicalRow, 16)
	if err != nil {
		t.Fatal(err)
	}
	real := b.Module.Remap()
	phys := real.ToPhysical(logicalRow)
	want := map[int]bool{
		real.ToLogical(phys - 1): true,
		real.ToLogical(phys + 1): true,
	}
	for _, n := range neighbors {
		if !want[n] {
			t.Fatalf("probe found %v, want logical neighbors of physical %d (%v)", neighbors, phys, want)
		}
	}
	if len(neighbors) != 2 {
		t.Fatalf("expected 2 neighbors, got %v", neighbors)
	}
}

func TestMaskRange(t *testing.T) {
	for _, tc := range []struct {
		mask   uint32
		lo, hi int
	}{
		{0, -1, -1},
		{1 << 4, 4, 4},
		{1<<0 | 1<<31, 0, 31},
		{0b1011_0100, 2, 7}, // gaps at 3 and 6 do not narrow the range
	} {
		if lo, hi := MaskRange(tc.mask); lo != tc.lo || hi != tc.hi {
			t.Errorf("MaskRange(%#b) = (%d, %d), want (%d, %d)", tc.mask, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestTemperatureSweepClustering(t *testing.T) {
	b := newBenchFor(t, "A", 25)
	tst := NewTester(b)
	victims := []int{30, 60, 90, 120, 150, 180}
	sweep, err := tst.TemperatureSweep(context.Background(), TempSweepConfig{
		Bank: 0, Victims: victims, Hammers: 200_000, Pattern: PatCheckered, Repetitions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Flips) != 9 {
		t.Fatalf("expected 9 temperature points, got %d", len(sweep.Flips))
	}
	m := sweep.ClusterByRange()
	if m.Total == 0 {
		t.Fatal("no vulnerable cells observed across sweep")
	}
	// Obsv. 1: overwhelming majority flip with no gaps.
	if f := m.NoGapFraction(); f < 0.9 {
		t.Fatalf("no-gap fraction %v, want > 0.9", f)
	}
	// Obsv. 2: a significant fraction spans the full range.
	if f := m.FullRangeFraction(); f < 0.02 {
		t.Fatalf("full-range fraction %v too small", f)
	}
	// Sanity: fractions sum to 1.
	sum := 0.0
	for hi := range m.Temps {
		for lo := 0; lo <= hi; lo++ {
			sum += m.Fraction(lo, hi)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("cluster fractions sum to %v", sum)
	}
}

func TestRowVariationSummary(t *testing.T) {
	rows := []RowHC{
		{Row: 1, HCfirst: 100, Found: true},
		{Row: 2, HCfirst: 200, Found: true},
		{Row: 3, HCfirst: 300, Found: true},
		{Row: 4, HCfirst: 0, Found: false},
	}
	s, err := SummarizeRowVariation(rows)
	if err != nil {
		t.Fatal(err)
	}
	if s.MinHC != 100 || s.Vulnerable != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if _, err := SummarizeRowVariation(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestColumnAccumulator(t *testing.T) {
	g := smallGeometry()
	a := NewColumnAccumulator(g)
	// Bit 0 = chip 0, col 0, line 0. BitIndex(1, 2, 3): chip 1, array
	// col 2*8+3=19.
	a.Add(FlipSet{Bits: []int{0, g.BitIndex(1, 2, 3), g.BitIndex(1, 2, 3)}})
	if a.Counts[0][0] != 1 {
		t.Fatal("bit 0 not counted")
	}
	if a.Counts[1][19] != 2 {
		t.Fatalf("chip1/col19 = %d, want 2", a.Counts[1][19])
	}
	if zf := a.ZeroColumnFraction(); zf >= 1 || zf <= 0.9 {
		t.Fatalf("zero fraction %v", zf)
	}
	if hf := a.HotColumnFraction(1); hf <= 0 {
		t.Fatalf("hot fraction %v", hf)
	}
	rel, cv := a.ColumnVariation()
	if rel[19] != 1 { // hottest column normalizes to 1 (mean 2/8 is max)
		t.Fatalf("relative vulnerability = %v", rel[19])
	}
	if cv[19] <= 0 {
		t.Fatal("cross-chip CV should be positive for a single-chip column")
	}
}

func TestGroupBySubarrayAndFit(t *testing.T) {
	g := smallGeometry() // 256-row subarrays
	var rows []RowHC
	for r := 10; r < 250; r += 10 {
		rows = append(rows, RowHC{Row: r, HCfirst: int64(100_000 + r*100), Found: true})
	}
	for r := 266; r < 500; r += 10 {
		rows = append(rows, RowHC{Row: r, HCfirst: int64(120_000 + r*100), Found: true})
	}
	subs := GroupBySubarray(g, rows)
	if len(subs) != 2 {
		t.Fatalf("expected 2 subarrays, got %d", len(subs))
	}
	for _, s := range subs {
		if s.Min > s.Avg {
			t.Fatalf("subarray %d: min %v > avg %v", s.Subarray, s.Min, s.Avg)
		}
	}
	if _, err := FitSubarrayMinVsAvg(subs); err != nil {
		t.Fatal(err)
	}
	sim := SubarraySimilarity(subs[0], subs[1])
	if sim < 0 || sim > 1 {
		t.Fatalf("similarity %v outside [0,1]", sim)
	}
}

func TestScaleRegionRows(t *testing.T) {
	g := smallGeometry()
	s := Scale{RowsPerRegion: 16, Regions: 3}
	rows := s.RegionRows(g)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	seen := map[int]bool{}
	for _, r := range rows {
		if r < 0 || r >= g.RowsPerBank {
			t.Fatalf("row %d out of range", r)
		}
		if r%g.SubarrayRows == 0 || r%g.SubarrayRows == g.SubarrayRows-1 {
			t.Fatalf("row %d on subarray edge", r)
		}
		if seen[r] {
			t.Fatalf("duplicate row %d", r)
		}
		seen[r] = true
	}
}

func TestSetTemperatureReflectsInModule(t *testing.T) {
	b := newBenchFor(t, "D", 27)
	if err := b.SetTemperature(85); err != nil {
		t.Fatal(err)
	}
	if got := b.Module.Temperature(); got < 84 || got > 86 {
		t.Fatalf("module temperature %v after settling at 85", got)
	}
}

func TestStudyTemps(t *testing.T) {
	temps := StudyTemps()
	if len(temps) != 9 || temps[0] != 50 || temps[8] != 90 {
		t.Fatalf("temps = %v", temps)
	}
}

func TestRecoverMappingTableMatchesReality(t *testing.T) {
	// Scheme-free recovery: reconstruct a 16-row block's mapping table
	// for a mirrored module and verify physical adjacency agrees with
	// the real internal scheme (orientation-insensitive: the probe
	// cannot tell a path from its reverse).
	b := newBenchFor(t, "B", 61) // MirrorRemap
	tst := NewTester(b)
	tst.UseMapping(dram.DirectRemap{}) // start ignorant
	const blockStart, blockLen = 16, 16
	table, err := tst.RecoverMappingTable(0, blockStart, blockLen)
	if err != nil {
		t.Fatal(err)
	}
	real := b.Module.Remap()
	for p := blockStart + 1; p < blockStart+blockLen; p++ {
		a := table.ToLogical(p - 1)
		bRow := table.ToLogical(p)
		d := real.ToPhysical(a) - real.ToPhysical(bRow)
		if d != 1 && d != -1 {
			t.Fatalf("recovered neighbors %d,%d not physically adjacent (Δ=%d)", a, bRow, d)
		}
	}
	// The recovered table must now drive correct double-sided attacks:
	// hammering "physical" neighbors of a mid-block victim flips it.
	victim := blockStart + blockLen/2
	res, err := tst.Hammer(HammerConfig{
		Bank: 0, VictimPhys: victim, Hammers: 400_000, Pattern: PatCheckered, Trial: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Victim.Count() == 0 {
		t.Fatal("double-sided attack through the recovered table produced no flips")
	}
}

func TestRecoverMappingTableValidation(t *testing.T) {
	b := newBenchFor(t, "A", 63)
	if _, err := NewTester(b).RecoverMappingTable(0, 0, 2); err == nil {
		t.Fatal("expected error for tiny block")
	}
}

// TestCloneChamberMatchesConstruction: a clone's chamber is a copy of
// the construction snapshot, not of the source bench's current state,
// and equals a freshly constructed bench's chamber in every respect —
// plant temperature, PID state, setpoint, elapsed time and the next
// thermocouple readings.
func TestCloneChamberMatchesConstruction(t *testing.T) {
	src := newBenchFor(t, "B", 5)
	// Move the source away from its construction state first.
	if err := src.SetTemperature(80); err != nil {
		t.Fatal(err)
	}
	clone, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	fresh := newBenchFor(t, "B", 5)
	got, want := clone.Chamber, fresh.Chamber
	if got.Plant.Temperature() != want.Plant.Temperature() || *got.PID != *want.PID ||
		got.Setpoint() != want.Setpoint() || got.Elapsed() != want.Elapsed() {
		t.Fatalf("clone chamber differs from construction: plant %v/%v, PID %+v/%+v, setpoint %v/%v, elapsed %v/%v",
			got.Plant.Temperature(), want.Plant.Temperature(), *got.PID, *want.PID,
			got.Setpoint(), want.Setpoint(), got.Elapsed(), want.Elapsed())
	}
	if clone.Module.Temperature() != fresh.Module.Temperature() {
		t.Fatalf("clone module at %v °C, fresh bench at %v °C", clone.Module.Temperature(), fresh.Module.Temperature())
	}
	for i := 0; i < 16; i++ {
		if g, w := got.Temperature(), want.Temperature(); g != w {
			t.Fatalf("thermocouple read %d: clone %v, fresh %v", i, g, w)
		}
	}
}
