package faultmodel

import (
	"math"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/rng"
	"rowhammer/internal/stats"
)

func testGeometry() dram.Geometry {
	return dram.Geometry{Banks: 2, RowsPerBank: 1024, SubarrayRows: 512, Chips: 8, ChipWidth: 8, ColumnsPerRow: 64}
}

func newTestModel(t *testing.T, p *Profile, seed uint64) *Model {
	t.Helper()
	m, err := NewModel(Config{Profile: p, ModuleSeed: seed, Geometry: testGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mkLedger builds a double-sided ledger: hammers pairs of distance-1
// activations at the given on/off times (ns) and temperature.
func mkLedger(hammers int64, onNs, offNs, tempC float64) *dram.RowLedger {
	led := &dram.RowLedger{}
	d := &led.Dist[0]
	d.Count = 2 * hammers
	d.SumOn = dram.Picos(2*hammers) * dram.PicosFromNs(onNs)
	d.SumOff = dram.Picos(2*hammers) * dram.PicosFromNs(offNs)
	d.SumTempMilliC = 2 * hammers * int64(tempC*1000)
	return led
}

// disturbApply runs the kernel Disturb path and XORs the returned flip
// mask into ctx.Data, reproducing the stored-data effect the module
// applies after every sense.
func disturbApply(m *Model, ctx dram.DisturbContext) int {
	n, mask := m.Disturb(ctx)
	dram.ApplyFlipMask(ctx.Data, mask)
	return n
}

// disturbRow runs Disturb over a fresh victim row holding pattern and
// returns the flip count. Aggressor rows hold aggPattern.
func disturbRow(m *Model, bank, row int, led *dram.RowLedger, pattern, aggPattern uint64) int {
	geo := testGeometry()
	data := make([]uint64, geo.RowWords())
	agg := make([]uint64, geo.RowWords())
	for i := range data {
		data[i] = pattern
		agg[i] = aggPattern
	}
	return disturbApply(m, dram.DisturbContext{
		Bank: bank, Row: row, Ledger: led, Data: data, Geometry: geo,
		Up: agg, Down: agg,
	})
}

// berOverRows sums flips over the first n in-subarray rows.
func berOverRows(m *Model, hammers int64, onNs, offNs, tempC float64, n int) int {
	total := 0
	for row := 8; row < 8+n; row++ {
		led := mkLedger(hammers, onNs, offNs, tempC)
		total += disturbRow(m, 0, row, led, 0, ^uint64(0))
	}
	return total
}

func TestDisturbDeterministic(t *testing.T) {
	m := newTestModel(t, MfrA(), 7)
	led1 := mkLedger(150_000, 34.5, 16.5, 50)
	led2 := mkLedger(150_000, 34.5, 16.5, 50)
	a := disturbRow(m, 0, 10, led1, 0, ^uint64(0))
	b := disturbRow(m, 0, 10, led2, 0, ^uint64(0))
	if a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("150K hammers at WCDP-like data should flip some cells")
	}
}

func TestDisturbMonotoneInHammerCount(t *testing.T) {
	m := newTestModel(t, MfrA(), 7)
	prev := -1
	for _, hc := range []int64{10_000, 50_000, 150_000, 400_000} {
		n := berOverRows(m, hc, 34.5, 16.5, 50, 20)
		if n < prev {
			t.Fatalf("flips decreased with hammer count: %d → %d at %d", prev, n, hc)
		}
		prev = n
	}
}

func TestEarlyOutOnLowHammerCount(t *testing.T) {
	m := newTestModel(t, MfrD(), 7) // highest BaseHC
	led := mkLedger(10, 34.5, 16.5, 50)
	if n := disturbRow(m, 0, 10, led, 0, ^uint64(0)); n != 0 {
		t.Fatalf("10 hammers should never flip (base HC ~85K), got %d", n)
	}
}

func TestEmptyLedgerNoFlips(t *testing.T) {
	m := newTestModel(t, MfrA(), 7)
	if n := disturbRow(m, 0, 10, &dram.RowLedger{}, 0, ^uint64(0)); n != 0 {
		t.Fatalf("empty ledger flipped %d", n)
	}
}

func TestLongerOnTimeIncreasesFlips(t *testing.T) {
	for _, p := range Profiles() {
		m := newTestModel(t, p, 11)
		base := berOverRows(m, 150_000, 34.5, 16.5, 50, 30)
		long := berOverRows(m, 150_000, 154.5, 16.5, 50, 30)
		if base == 0 {
			t.Fatalf("mfr %s: baseline produced no flips", p.Name)
		}
		if long <= base {
			t.Fatalf("mfr %s: tAggOn 154.5ns flips %d <= baseline %d", p.Name, long, base)
		}
	}
}

func TestLongerOffTimeDecreasesFlips(t *testing.T) {
	for _, p := range Profiles() {
		m := newTestModel(t, p, 11)
		base := berOverRows(m, 150_000, 34.5, 16.5, 50, 30)
		long := berOverRows(m, 150_000, 34.5, 40.5, 50, 30)
		if long >= base {
			t.Fatalf("mfr %s: tAggOff 40.5ns flips %d >= baseline %d", p.Name, long, base)
		}
	}
}

func TestTemperatureTrendPerManufacturer(t *testing.T) {
	// BER must rise with temperature for A/C/D and fall for B
	// (Obsv. 4), measured over enough rows to average out per-row
	// inflection effects.
	for _, tc := range []struct {
		p        *Profile
		increase bool
	}{
		{MfrA(), true}, {MfrB(), false}, {MfrC(), true}, {MfrD(), true},
	} {
		m := newTestModel(t, tc.p, 13)
		cold := berOverRows(m, 150_000, 34.5, 16.5, 50, 60)
		hot := berOverRows(m, 150_000, 34.5, 16.5, 90, 60)
		if tc.increase && hot <= cold {
			t.Errorf("mfr %s: hot %d <= cold %d, want increase", tc.p.Name, hot, cold)
		}
		if !tc.increase && hot >= cold {
			t.Errorf("mfr %s: hot %d >= cold %d, want decrease", tc.p.Name, hot, cold)
		}
	}
}

func TestCouplingAntiParallelStronger(t *testing.T) {
	m := newTestModel(t, MfrA(), 17)
	total0, total1 := 0, 0
	for row := 8; row < 40; row++ {
		// Victim zeros, aggressors ones: anti-cells storing 0 see
		// maximal coupling.
		led := mkLedger(150_000, 34.5, 16.5, 50)
		total1 += disturbRow(m, 0, row, led, 0, ^uint64(0))
		// Victim zeros, aggressors zeros: same charge pattern, weak
		// coupling only.
		led = mkLedger(150_000, 34.5, 16.5, 50)
		total0 += disturbRow(m, 0, row, led, 0, 0)
	}
	if total1 <= total0 {
		t.Fatalf("anti-parallel aggressors flips %d <= parallel %d", total1, total0)
	}
}

func TestOrientationGate(t *testing.T) {
	// A cell flips only when storing its charged state: flipping the
	// victim pattern flips a *different* (complementary) set of cells.
	m := newTestModel(t, MfrA(), 19)
	geo := testGeometry()
	mk := func(pattern uint64) []uint64 {
		data := make([]uint64, geo.RowWords())
		for i := range data {
			data[i] = pattern
		}
		ones := make([]uint64, geo.RowWords())
		for i := range ones {
			ones[i] = 0x5555555555555555 // differs from both 0 and ^0 at every position
		}
		disturbApply(m, dram.DisturbContext{
			Bank: 0, Row: 10, Ledger: mkLedger(300_000, 34.5, 16.5, 50),
			Data: data, Geometry: geo,
			Up: ones, Down: ones,
		})
		return data
	}
	zeros := mk(0)
	onesV := mk(^uint64(0))
	// Bits that flipped from 0 (0→1 flips: anti-cells).
	// Bits that flipped from 1 (1→0 flips: true-cells).
	for w := range zeros {
		flippedFromZero := zeros[w]
		flippedFromOne := ^onesV[w]
		if overlap := flippedFromZero & flippedFromOne; overlap != 0 {
			t.Fatalf("word %d: bits %#x flipped in both orientations", w, overlap)
		}
	}
}

func TestTempRangeGatePerCell(t *testing.T) {
	// Find cells that flip at 50°C but have a bounded range, verify
	// they don't flip at 90°C (and vice versa), consistent with
	// Cell() ground truth.
	m := newTestModel(t, MfrA(), 23)
	geo := testGeometry()
	flipsAt := func(tempC float64, row int) map[int]bool {
		data := make([]uint64, geo.RowWords())
		agg := make([]uint64, geo.RowWords())
		for i := range agg {
			agg[i] = ^uint64(0)
		}
		disturbApply(m, dram.DisturbContext{
			Bank: 0, Row: row, Ledger: mkLedger(400_000, 34.5, 16.5, tempC),
			Data: data, Geometry: geo,
			Up: agg, Down: agg,
		})
		out := map[int]bool{}
		for bit := 0; bit < geo.RowBits(); bit++ {
			if data[bit/64]>>(uint(bit%64))&1 == 1 {
				out[bit] = true
			}
		}
		return out
	}
	checked := 0
	for row := 8; row < 24; row++ {
		cold := flipsAt(50, row)
		hot := flipsAt(90, row)
		for bit := range cold {
			ci := m.Cell(0, row, bit)
			if ci.TempHiC < 90 && hot[bit] {
				t.Fatalf("row %d bit %d: range [%v,%v] but flipped at 90°C", row, bit, ci.TempLoC, ci.TempHiC)
			}
			checked++
		}
		for bit := range hot {
			ci := m.Cell(0, row, bit)
			if ci.TempLoC > 50 && cold[bit] {
				t.Fatalf("row %d bit %d: range [%v,%v] but flipped at 50°C", row, bit, ci.TempLoC, ci.TempHiC)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no flips observed; test vacuous")
	}
}

func TestRowMultiplierQuantiles(t *testing.T) {
	p := MfrA()
	if got := p.RowMultiplier(0); got != 1 {
		t.Fatalf("Q(0) = %v, want 1", got)
	}
	if got := p.RowMultiplier(1); got != 5 {
		t.Fatalf("Q(1) = %v, want 5", got)
	}
	if got := p.RowMultiplier(0.05); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("Q(0.05) = %v, want 2.0", got)
	}
	// Interpolation between knots.
	mid := p.RowMultiplier(0.03)
	if mid <= 1.6 || mid >= 2.0 {
		t.Fatalf("Q(0.03) = %v, want within (1.6, 2.0)", mid)
	}
	// Monotone.
	prev := 0.0
	for u := 0.0; u <= 1.0; u += 0.01 {
		v := p.RowMultiplier(u)
		if v < prev {
			t.Fatalf("quantile fn not monotone at %v", u)
		}
		prev = v
	}
}

func TestRowBaseHCDistribution(t *testing.T) {
	m := newTestModel(t, MfrA(), 29)
	var hcs []float64
	for row := 0; row < 2000; row++ {
		hcs = append(hcs, m.RowBaseHC(0, row%1024)+float64(row/1024)*0) // dedup below
	}
	hcs = hcs[:1024]
	minHC := stats.Min(hcs)
	// 95% of rows should be ≥ ~2× the min (Fig. 11 calibration).
	p5 := stats.Percentile(hcs, 5)
	ratio := p5 / minHC
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("P5/min HCfirst ratio = %v, want ≈2.0", ratio)
	}
}

func TestModuleVariation(t *testing.T) {
	a := newTestModel(t, MfrA(), 1)
	b := newTestModel(t, MfrA(), 2)
	if a.baseHC == b.baseHC {
		t.Fatal("different module seeds should differ in base HC")
	}
	a2 := newTestModel(t, MfrA(), 1)
	if a.baseHC != a2.baseHC {
		t.Fatal("same seed must reproduce base HC")
	}
}

func TestColumnFactorDesignVsProcess(t *testing.T) {
	// Mfr B (design-dominated): column factors nearly identical across
	// chips and across modules. Mfr A (process-dominated): high
	// cross-chip variation.
	cv := func(p *Profile) float64 {
		m1 := newTestModel(t, p, 31)
		var cvs []float64
		for col := 0; col < 64; col++ {
			var vals []float64
			for chip := 0; chip < 8; chip++ {
				vals = append(vals, math.Log(m1.colFactor[chip][col]))
			}
			cvs = append(cvs, stats.StdDev(vals))
		}
		return stats.Mean(cvs)
	}
	spreadA := cv(MfrA())
	spreadB := cv(MfrB())
	if spreadB >= spreadA/3 {
		t.Fatalf("cross-chip column spread: B=%v should be well below A=%v", spreadB, spreadA)
	}
}

func TestSaltChangesMarginalCellsOnly(t *testing.T) {
	m := newTestModel(t, MfrA(), 37)
	led := mkLedger(150_000, 34.5, 16.5, 50)
	m.SetSalt(1)
	a := disturbRow(m, 0, 10, led, 0, ^uint64(0))
	led = mkLedger(150_000, 34.5, 16.5, 50)
	m.SetSalt(2)
	b := disturbRow(m, 0, 10, led, 0, ^uint64(0))
	m.SetSalt(0)
	// Counts should be close (noise is 4%), rarely identical across
	// many rows; just check the mechanism doesn't explode.
	if a == 0 || b == 0 {
		t.Fatal("salted runs produced no flips")
	}
	diff := math.Abs(float64(a-b)) / float64(a)
	if diff > 0.5 {
		t.Fatalf("salt changed flips too much: %d vs %d", a, b)
	}
}

func TestEffectiveHammersScaling(t *testing.T) {
	m := newTestModel(t, MfrA(), 41)
	led := mkLedger(1000, 34.5, 16.5, 50)
	h1 := m.EffectiveHammers(led, 50)
	led2 := mkLedger(2000, 34.5, 16.5, 50)
	h2 := m.EffectiveHammers(led2, 50)
	if math.Abs(h2/h1-2) > 1e-9 {
		t.Fatalf("effective hammers not linear: %v, %v", h1, h2)
	}
	// Baseline double-sided: heff ≈ hammer count at the row's
	// inflection-neutral factor; verify weight normalization.
	if h1 < 500 || h1 > 1500 {
		t.Fatalf("heff = %v for 1000 hammers, want ≈1000", h1)
	}
}

func TestCellGroundTruthThresholdPositive(t *testing.T) {
	m := newTestModel(t, MfrC(), 43)
	for bit := 0; bit < 100; bit++ {
		ci := m.Cell(0, 5, bit)
		if ci.ThresholdHC <= 0 {
			t.Fatalf("bit %d threshold %v", bit, ci.ThresholdHC)
		}
		if ci.TempLoC < 50 || ci.TempHiC > 90 || ci.TempLoC > ci.TempHiC {
			t.Fatalf("bit %d range [%v,%v]", bit, ci.TempLoC, ci.TempHiC)
		}
	}
}

func TestNewModelErrors(t *testing.T) {
	if _, err := NewModel(Config{Profile: nil, Geometry: testGeometry()}); err == nil {
		t.Fatal("expected error for nil profile")
	}
	if _, err := NewModel(Config{Profile: MfrA(), Geometry: dram.Geometry{}}); err == nil {
		t.Fatal("expected error for invalid geometry")
	}
	bad := MfrA()
	bad.TempClusters = nil
	if _, err := NewModel(Config{Profile: bad, Geometry: testGeometry()}); err == nil {
		t.Fatal("expected error for empty cluster distribution")
	}
}

func TestProfileRegistry(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("want 4 profiles, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if names[p.Name] {
			t.Fatalf("duplicate profile %s", p.Name)
		}
		names[p.Name] = true
		if p.BaseHC <= 0 || p.TailAlpha <= 0 || p.VulnFrac <= 0 || len(p.TempClusters) == 0 || p.Remap == nil {
			t.Fatalf("profile %s incomplete", p.Name)
		}
		if len(p.Modules) == 0 {
			t.Fatalf("profile %s missing module inventory", p.Name)
		}
	}
	if ProfileByName("A") == nil || ProfileByName("Z") != nil {
		t.Fatal("ProfileByName lookup broken")
	}
}

func TestTable2ChipCounts(t *testing.T) {
	// 248 DDR4 + 24 DDR3 chips across the inventory.
	ddr4, ddr3 := 0, 0
	for _, p := range Profiles() {
		for _, mi := range p.Modules {
			switch mi.Type {
			case "DDR4":
				ddr4 += mi.NumChips
			case "DDR3":
				ddr3 += mi.NumChips
			}
		}
	}
	if ddr4 != 248 {
		t.Fatalf("DDR4 chips = %d, want 248", ddr4)
	}
	if ddr3 != 24 {
		t.Fatalf("DDR3 chips = %d, want 24", ddr3)
	}
}

func TestFig3MatricesRoughlyNormalized(t *testing.T) {
	for _, p := range Profiles() {
		sum := 0.0
		for _, c := range p.TempClusters {
			if c.LoC > c.HiC {
				t.Fatalf("mfr %s: inverted cluster [%v,%v]", p.Name, c.LoC, c.HiC)
			}
			sum += c.Prob
		}
		if sum < 0.95 || sum > 1.05 {
			t.Fatalf("mfr %s: cluster mass %v, want ≈1", p.Name, sum)
		}
	}
}

// TestForkDisturbAllocs pins what a fresh fork costs: Model.Fork plus
// one Disturb of a row already cached by its parent allocates at most
// 16 objects (the fork, its row and replay caches, its walk scratch and
// one replay entry), and a steady-state DisturbBatch allocates none.
func TestForkDisturbAllocs(t *testing.T) {
	parent := newTestModel(t, MfrA(), 71)
	geo := parent.geo
	victim := make([]uint64, geo.RowWords())
	agg := make([]uint64, geo.RowWords())
	fillPattern(victim, "checkered", 0)
	fillPattern(agg, "checkered", 0)
	for i := range agg {
		agg[i] = ^agg[i]
	}
	const row = 100
	ctx := dram.DisturbContext{
		Bank: 0, Row: row, Ledger: mkLedger(int64(2*parent.RowBaseHC(0, row)), 34.5, 16.5, 50),
		Data: victim, Geometry: geo, Up: agg, Down: agg,
	}
	if n, _ := parent.Disturb(ctx); n == 0 {
		t.Fatal("warmup produced no flips; test vacuous")
	}
	const forkDisturbAllocs = 16
	if n := testing.AllocsPerRun(20, func() { parent.Fork().Disturb(ctx) }); n > forkDisturbAllocs {
		t.Fatalf("Fork + Disturb allocates %.0f objects, want ≤ %d", n, forkDisturbAllocs)
	}

	salts := []uint64{1, 2, 3, 4, 5}
	masks := make([][]uint64, len(salts))
	for i := range masks {
		masks[i] = make([]uint64, geo.RowWords())
	}
	flips := make([]int, len(salts))
	parent.DisturbBatch(ctx, salts, masks, flips)
	if n := testing.AllocsPerRun(20, func() { parent.DisturbBatch(ctx, salts, masks, flips) }); n != 0 {
		t.Fatalf("steady-state DisturbBatch allocates %.0f objects, want 0", n)
	}
}

// TestColumnFactorsMatchHash64x5Reference pins NewModel's hoisted
// column-process hash (one HashPrefix per column, two Hash64Suffix
// draws): colFactor and cfNegAlpha must be bit-identical to the
// per-draw Hash64x5 formulation for every profile, at the tiny and
// the default geometry.
func TestColumnFactorsMatchHash64x5Reference(t *testing.T) {
	tiny := dram.Geometry{Banks: 1, RowsPerBank: 512, SubarrayRows: 128, Chips: 8, ChipWidth: 8, ColumnsPerRow: 32}
	for _, geo := range []dram.Geometry{tiny, dram.DefaultDDR4Geometry()} {
		for _, p := range Profiles() {
			m, err := NewModel(Config{Profile: p, ModuleSeed: 0xc01f, Geometry: geo})
			if err != nil {
				t.Fatal(err)
			}
			designKey := rng.Hash64(uint64(len(p.Name)), uint64(p.Name[0]), keyColDesign)
			minNegAlpha := math.Pow(minColFactor, -p.TailAlpha)
			for chip := 0; chip < geo.Chips; chip++ {
				for c := 0; c < geo.ChipRowBits(); c++ {
					zd := rng.NormalFromHash(rng.Hash64x3(designKey, uint64(c), 1), rng.Hash64x3(designKey, uint64(c), 2))
					zp := rng.NormalFromHash(
						rng.Hash64x5(m.seed, keyColProc, uint64(chip), uint64(c), 1),
						rng.Hash64x5(m.seed, keyColProc, uint64(chip), uint64(c), 2),
					)
					lf := p.ColSigma * (math.Sqrt(1-p.ColProcessWeight)*zd + math.Sqrt(p.ColProcessWeight)*zp)
					f, negAlpha := math.Exp(lf), math.Exp(-p.TailAlpha*lf)
					if f < minColFactor {
						f, negAlpha = minColFactor, minNegAlpha
					}
					if got := m.colFactor[chip][c]; math.Float64bits(got) != math.Float64bits(f) {
						t.Fatalf("%s %+v chip %d col %d: colFactor %v, reference %v", p.Name, geo, chip, c, got, f)
					}
					if got := m.cfNegAlpha[chip][c]; math.Float64bits(got) != math.Float64bits(negAlpha) {
						t.Fatalf("%s %+v chip %d col %d: cfNegAlpha %v, reference %v", p.Name, geo, chip, c, got, negAlpha)
					}
				}
			}
		}
	}
}
