package faultmodel

import (
	"fmt"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/rng"
)

// fillPattern fills a row buffer with a named data pattern.
func fillPattern(buf []uint64, pattern string, seed uint64) {
	for i := range buf {
		switch pattern {
		case "zeros":
			buf[i] = 0
		case "ones":
			buf[i] = ^uint64(0)
		case "checkered":
			buf[i] = 0xaaaaaaaaaaaaaaaa
		case "random":
			buf[i] = rng.Hash64x2(seed, uint64(i))
		default:
			panic("unknown pattern " + pattern)
		}
	}
}

// diffDisturb runs the candidate kernel and the reference per-bit path
// on identical inputs and fails the test unless the flip sets are
// bit-identical.
func diffDisturb(t *testing.T, kern, ref *Model, bank, row int, led *dram.RowLedger, victim, agg string, patSeed uint64) (flips int) {
	t.Helper()
	geo := kern.geo
	dataK := make([]uint64, geo.RowWords())
	dataR := make([]uint64, geo.RowWords())
	neighbors := make([]uint64, geo.RowWords())
	fillPattern(dataK, victim, patSeed)
	fillPattern(dataR, victim, patSeed)
	fillPattern(neighbors, agg, patSeed+1)

	ledCopy := *led
	// The kernel path emits a flip bitplane which is XORed in
	// afterwards (as the module does); the reference path flips dataR
	// in place, bit by bit. Comparing the resulting words proves the
	// mask application is bit-identical to per-bit updates.
	nK := disturbApply(kern, dram.DisturbContext{
		Bank: bank, Row: row, Ledger: led, Data: dataK, Geometry: geo,
		Up: neighbors, Down: neighbors,
	})
	nR := ref.ReferenceDisturb(dram.DisturbContext{
		Bank: bank, Row: row, Ledger: &ledCopy, Data: dataR, Geometry: geo,
		Up: neighbors, Down: neighbors,
	})
	if nK != nR {
		t.Fatalf("flip count diverged: kernel %d, reference %d (row %d, victim %s, agg %s)", nK, nR, row, victim, agg)
	}
	for w := range dataK {
		if dataK[w] != dataR[w] {
			t.Fatalf("flip set diverged at word %d: kernel %#x, reference %#x (row %d, victim %s, agg %s)",
				w, dataK[w], dataR[w], row, victim, agg)
		}
	}
	return nK
}

// TestKernelMatchesReference is the kernel's differential anchor: for
// all four manufacturer profiles, the full 50–90 °C grid, several data
// patterns, module seeds, and salted/unsalted trials, the candidate
// kernel must produce flip sets bit-identical to the naive per-bit
// reference path.
func TestKernelMatchesReference(t *testing.T) {
	patterns := []struct{ victim, agg string }{
		{"zeros", "ones"},
		{"ones", "zeros"},
		{"checkered", "checkered"},
		{"random", "random"},
	}
	totalFlips := 0
	for _, p := range Profiles() {
		for _, seed := range []uint64{3, 0x5eed} {
			kern := newTestModel(t, p, seed)
			ref := newTestModel(t, p, seed)
			for _, salt := range []uint64{0, 1, 5} {
				kern.SetSalt(salt)
				ref.SetSalt(salt)
				for tempC := 50.0; tempC <= 90; tempC += 5 {
					for pi, pat := range patterns {
						row := 8 + pi
						// Hammer counts spanning early-out, marginal, and
						// saturated regimes.
						for _, hammers := range []int64{40_000, 150_000, 512_000} {
							led := mkLedger(hammers, 34.5, 16.5, tempC)
							totalFlips += diffDisturb(t, kern, ref, 0, row, led, pat.victim, pat.agg, seed^uint64(tempC))
						}
					}
				}
			}
		}
	}
	if totalFlips == 0 {
		t.Fatal("differential sweep observed no flips; test vacuous")
	}
}

// TestKernelMatchesReferenceOffNominalTimings covers ledger shapes the
// temperature grid sweep does not: non-reference on/off timings and
// distance-2-only disturbance.
func TestKernelMatchesReferenceOffNominalTimings(t *testing.T) {
	for _, p := range Profiles() {
		kern := newTestModel(t, p, 17)
		ref := newTestModel(t, p, 17)
		for row := 8; row < 12; row++ {
			for _, tm := range []struct{ on, off float64 }{{154.5, 16.5}, {34.5, 40.5}, {9.7, 7.9}} {
				led := mkLedger(300_000, tm.on, tm.off, 65)
				diffDisturb(t, kern, ref, 0, row, led, "checkered", "random", 99)
			}
			// Distance-2-only ledger: dist-1 empty, so the temperature
			// source must come from dist 2 in both paths.
			led := &dram.RowLedger{}
			d := &led.Dist[1]
			d.Count = 8_000_000
			d.SumOn = dram.Picos(d.Count) * dram.PicosFromNs(34.5)
			d.SumOff = dram.Picos(d.Count) * dram.PicosFromNs(16.5)
			d.SumTempMilliC = d.Count * 70_000
			diffDisturb(t, kern, ref, 0, row, led, "zeros", "ones", 7)
		}
	}
}

// TestKernelLRUEvictionRecomputesIdentically shrinks the candidate
// cache far below the working set and proves that rows rebuilt after
// eviction produce the same flip sets as a cold model. It drives the
// walk through DisturbBatch, which bypasses the replay cache, so a
// revisit really does hit the candidate LRU.
func TestKernelLRUEvictionRecomputesIdentically(t *testing.T) {
	p := MfrA()
	small := newTestModel(t, p, 23)
	// A 1-byte budget keeps exactly one (oversized) entry per shard:
	// maximal thrash, every collision evicts.
	small.candCache = newCandLRU(1)
	cold := newTestModel(t, p, 23)

	run := func(m *Model, row int) []uint64 {
		geo := m.geo
		data := make([]uint64, geo.RowWords())
		agg := make([]uint64, geo.RowWords())
		fillPattern(agg, "ones", 0)
		led := mkLedger(400_000, 34.5, 16.5, 50)
		masks := [][]uint64{make([]uint64, geo.RowWords())}
		flips := []int{0}
		m.DisturbBatch(dram.DisturbContext{
			Bank: 0, Row: row, Ledger: led, Data: data, Geometry: geo,
			Up: agg, Down: agg,
		}, []uint64{0}, masks, flips)
		dram.ApplyFlipMask(data, masks[0])
		return data
	}

	var rows []int
	for r := 8; r < 40; r++ {
		rows = append(rows, r)
	}
	first := map[int][]uint64{}
	for _, r := range rows {
		first[r] = run(small, r)
	}
	if got := small.candCache.lenEntries(); got > candShardCount {
		t.Fatalf("thrashed LRU held %d rows, want at most one per shard (%d)", got, candShardCount)
	}
	// Most rows have been evicted by now; revisiting must rebuild and
	// reproduce both the first pass and a never-evicted cold model.
	for _, r := range rows {
		again := run(small, r)
		want := run(cold, r)
		for w := range again {
			if again[w] != first[r][w] || again[w] != want[w] {
				t.Fatalf("row %d word %d: evicted rebuild %#x, first pass %#x, cold model %#x",
					r, w, again[w], first[r][w], want[w])
			}
		}
	}
}

// TestKernelLRUBoundsMemory checks that the per-shard budgets sum to
// the global byte budget and that a thrashing workload never exceeds
// it (each entry fits its shard budget here, so the min-one-entry
// retention rule cannot push a shard over).
func TestKernelLRUBoundsMemory(t *testing.T) {
	m := newTestModel(t, MfrC(), 29)
	sum := 0
	for i := range m.candCache.shards {
		sum += m.candCache.shards[i].budgetBytes
	}
	if sum > candCacheBudgetBytes || sum < candCacheBudgetBytes-candShardCount {
		t.Fatalf("per-shard budgets sum to %d, want %d (± rounding)", sum, candCacheBudgetBytes)
	}

	// Shrink to ~4 complete rows per shard and touch far more rows,
	// hammered hard enough (8M) that their cover-bounded sets are
	// complete: the worst case for memory.
	perRow := len(m.candidates(0, 8)) * candidateBytes
	budget := 32 * perRow
	small := newCandLRU(budget)
	m.candCache = small
	for row := 8; row < 8+256; row++ {
		led := mkLedger(8_000_000, 34.5, 16.5, 50)
		disturbRow(m, 0, row, led, 0, ^uint64(0))
	}
	if got := small.totalBytes(); got > budget {
		t.Fatalf("cache holds %d bytes, budget %d", got, budget)
	}
	if got := small.lenEntries(); got >= 256 {
		t.Fatalf("no eviction happened across %d rows (%d entries)", 256, got)
	}
}

// TestCandidateSetSortedAndComplete sanity-checks the builder output:
// sorted ascending by rel, one entry per vulnerable bit, and rel
// consistent with Cell() ground truth.
func TestCandidateSetSortedAndComplete(t *testing.T) {
	for _, p := range Profiles() {
		m := newTestModel(t, p, 31)
		cells := m.candidates(0, 9)
		if len(cells) == 0 {
			t.Fatalf("mfr %s: empty candidate set", p.Name)
		}
		seen := map[int32]bool{}
		rowHC := m.RowBaseHC(0, 9)
		for i, c := range cells {
			if i > 0 && cells[i-1].rel > c.rel {
				t.Fatalf("mfr %s: candidates not sorted at %d", p.Name, i)
			}
			if seen[c.bit] {
				t.Fatalf("mfr %s: duplicate bit %d", p.Name, c.bit)
			}
			seen[c.bit] = true
			ci := m.Cell(0, 9, int(c.bit))
			if got, want := rowHC*c.rel, ci.ThresholdHC; got != want {
				t.Fatalf("mfr %s bit %d: kernel threshold %v, Cell() %v", p.Name, c.bit, got, want)
			}
		}
	}
}

// TestLedgerTempCZeroCelsius pins the sentinel fix: a ledger whose
// only recorded temperature averages exactly 0 °C must gate at 0 °C,
// not silently fall back to dist-2 or reference conditions.
func TestLedgerTempCZeroCelsius(t *testing.T) {
	led := &dram.RowLedger{}
	led.Dist[0].Count = 100
	led.Dist[0].SumTempMilliC = 0 // genuinely 0 °C
	led.Dist[1].Count = 50
	led.Dist[1].SumTempMilliC = 50 * 70_000
	if got := ledgerTempC(led); got != 0 {
		t.Fatalf("ledgerTempC = %v, want 0 (dist-1 recorded 0 °C)", got)
	}
	led.Dist[0].Count = 0
	if got := ledgerTempC(led); got != 70 {
		t.Fatalf("ledgerTempC = %v, want 70 (dist-1 empty, dist-2 at 70 °C)", got)
	}
	led.Dist[1].Count = 0
	if got := ledgerTempC(led); got != refTempC {
		t.Fatalf("ledgerTempC = %v, want reference %v for empty ledger", got, refTempC)
	}
}

func BenchmarkDisturbKernel(b *testing.B) {
	benchDisturb(b, func(m *Model, ctx dram.DisturbContext) int {
		n, _ := m.Disturb(ctx)
		return n
	})
}

func BenchmarkDisturbReference(b *testing.B) {
	benchDisturb(b, func(m *Model, ctx dram.DisturbContext) int { return m.ReferenceDisturb(ctx) })
}

func benchDisturb(b *testing.B, disturb func(*Model, dram.DisturbContext) int) {
	geo := testGeometry()
	m, err := NewModel(Config{Profile: MfrA(), ModuleSeed: 61, Geometry: geo})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]uint64, geo.RowWords())
	agg := make([]uint64, geo.RowWords())
	fillPattern(agg, "ones", 0)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		led := mkLedger(512_000, 34.5, 16.5, 50)
		for w := range data {
			data[w] = 0
		}
		sink += disturb(m, dram.DisturbContext{
			Bank: 0, Row: 100, Ledger: led, Data: data, Geometry: geo,
			Up: agg, Down: agg,
		})
	}
	if sink == 0 {
		b.Fatal("no flips")
	}
	_ = fmt.Sprint(sink)
}
