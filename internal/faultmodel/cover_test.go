package faultmodel

import (
	"math"
	"slices"
	"sync"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/rng"
)

// candidates returns the row's complete candidate set (cover +Inf), the
// view the cache and builder sanity tests inspect.
func (m *Model) candidates(bank, row int) []candidate {
	return m.candidatesUpTo(bank, row, math.Inf(1))
}

// tinyGeometry is the reduced geometry of the CLIs' -scale tiny runs:
// 2048-bit rows.
func tinyGeometry() dram.Geometry {
	return dram.Geometry{Banks: 1, RowsPerBank: 512, SubarrayRows: 128, Chips: 8, ChipWidth: 8, ColumnsPerRow: 32}
}

// wideGeometry is tinyGeometry widened to the 8192-bit rows of the
// Fig. 7/8 aggressor-time sweeps (exp.aggNormalize).
func wideGeometry() dram.Geometry {
	g := tinyGeometry()
	g.ColumnsPerRow = 128
	return g
}

func newTinyModel(t testing.TB, p *Profile, seed uint64) *Model {
	t.Helper()
	return newGeoModel(t, p, seed, tinyGeometry())
}

func newGeoModel(t testing.TB, p *Profile, seed uint64, geo dram.Geometry) *Model {
	t.Helper()
	m, err := NewModel(Config{Profile: p, ModuleSeed: seed, Geometry: geo})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// cachedSet reads key's cached set.
func (l *candLRU) cachedSet(key uint64) (candSet, bool) {
	s := l.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		return e.set, true
	}
	return candSet{}, false
}

// cachedCover reads the cover of key's cached set (−Inf when absent).
func (l *candLRU) cachedCover(key uint64) float64 {
	if set, ok := l.cachedSet(key); ok {
		return set.cover
	}
	return math.Inf(-1)
}

// oracleCell is one vulnerable cell as the reference path derives it.
type oracleCell struct {
	rel float64
	bit int32
	h   uint64
}

// oracleCandidates derives, by brute force and the way disturbReference
// does (variadic hashes, per-bit index arithmetic), every cell of the
// row with rel ≤ cover, ordered by the (rel, bit) comparator the
// builder's sort used before the radix sort.
func oracleCandidates(m *Model, bank, row int, cover float64) []oracleCell {
	rowBits := m.geo.RowBits()
	cw, chips := m.geo.ChipWidth, m.geo.Chips
	var out []oracleCell
	for bit := 0; bit < rowBits; bit++ {
		h := rng.Hash64(m.seed, uint64(bank), uint64(row), uint64(bit))
		u := rng.Uniform01(rng.Hash64(h, keyCellMult1))
		if u > m.p.VulnFrac {
			continue
		}
		mult := math.Pow(float64(rowBits)*u, 1/m.p.TailAlpha)
		if mult < minCellMult {
			mult = minCellMult
		}
		line := bit % cw
		rest := bit / cw
		chip := rest % chips
		col := rest / chips
		rel := mult * m.colFactor[chip][col*cw+line]
		if rel <= cover {
			out = append(out, oracleCell{rel: rel, bit: int32(bit), h: h})
		}
	}
	slices.SortFunc(out, func(a, b oracleCell) int {
		if a.rel != b.rel {
			if a.rel < b.rel {
				return -1
			}
			return 1
		}
		return int(a.bit - b.bit)
	})
	return out
}

// checkSetMatchesOracle fails unless set is exactly the oracle's cells
// with rel ≤ cover — cover +Inf when that is every vulnerable cell —
// in (rel, bit) order, with temperature gates that agree with
// tempInRange over the 50–90 °C test grid, and with a sketch exactly
// while the set is incomplete.
func checkSetMatchesOracle(t *testing.T, m *Model, row int, cover float64, set candSet) {
	t.Helper()
	full := oracleCandidates(m, 0, row, math.Inf(1))
	want := slices.DeleteFunc(slices.Clone(full), func(c oracleCell) bool { return c.rel > cover })
	wantCover := cover
	if len(want) == len(full) {
		wantCover = math.Inf(1)
	}
	if set.cover != wantCover {
		t.Fatalf("mfr %s row %d cover %v: set cover %v, want %v", m.p.Name, row, cover, set.cover, wantCover)
	}
	if (set.sketch == nil) != math.IsInf(wantCover, 1) {
		t.Fatalf("mfr %s row %d cover %v: sketch present %v with set cover %v", m.p.Name, row, cover, set.sketch != nil, set.cover)
	}
	if len(set.cells) != len(want) {
		t.Fatalf("mfr %s row %d cover %v: set has %d cells, oracle %d", m.p.Name, row, cover, len(set.cells), len(want))
	}
	for i, c := range set.cells {
		w := want[i]
		if c.rel != w.rel || c.bit != w.bit || c.h != w.h || c.charged != uint8(w.h&1) {
			t.Fatalf("mfr %s row %d cover %v: cell %d = (rel %v, bit %d), oracle (rel %v, bit %d)",
				m.p.Name, row, cover, i, c.rel, c.bit, w.rel, w.bit)
		}
		lo, hi := m.cellTempRange(c.h)
		for tempC := 50.0; tempC <= 90; tempC += 5 {
			gated := tempC < c.loGate || tempC > c.hiGate || math.Abs(tempC-c.gapT) < tempMargin
			if gated == m.tempInRange(c.h, tempC, lo, hi) {
				t.Fatalf("mfr %s row %d bit %d: gates disagree with tempInRange at %v °C", m.p.Name, row, c.bit, tempC)
			}
		}
	}
}

// coverLadders returns cover ladders from start: steps of 2^(1/(2α)),
// below the 2^(1/α) minimum candidatesUpTo asks for, and steps of 5×,
// above 4×.
func coverLadders(p *Profile, start float64) [][]float64 {
	var fine, coarse []float64
	for c := start; len(fine) < 10; c *= math.Pow(2, 1/(2*p.TailAlpha)) {
		fine = append(fine, c)
	}
	for c := start; len(coarse) < 5; c *= 5 {
		coarse = append(coarse, c)
	}
	return [][]float64{fine, coarse}
}

// TestBuildCandidatesMatchesOracle checks the cover-bounded builder and
// its extensions against a brute-force oracle for every profile, the
// tiny and the 8192-bit geometry, and several rows. Builds use a cover
// equal to an existing cell's rel (the boundary is inclusive), one just
// below the smallest possible rel (empty set), mid-range covers, and
// +Inf (the complete row, in the exact order of the comparator sort the
// radix sort replaced). Extensions walk fine and coarse cover ladders
// from a first build; every extended set must equal the oracle at its
// cover.
func TestBuildCandidatesMatchesOracle(t *testing.T) {
	for _, geo := range []dram.Geometry{tinyGeometry(), wideGeometry()} {
		for _, p := range Profiles() {
			m := newGeoModel(t, p, 41, geo)
			minCF := math.Inf(1)
			for _, cfs := range m.colFactor {
				minCF = min(minCF, slices.Min(cfs))
			}
			for _, row := range []int{3, 77, 300} {
				full := oracleCandidates(m, 0, row, math.Inf(1))
				covers := []float64{
					math.Inf(1),
					math.Nextafter(minCellMult*minCF, 0),
					full[0].rel,
					full[len(full)/8].rel,
					full[len(full)/2].rel,
					2, 4.5,
				}
				for _, cover := range covers {
					checkSetMatchesOracle(t, m, row, cover, m.buildCandidates(0, row, cover))
				}
				if got := m.buildCandidates(0, row, math.Nextafter(minCellMult*minCF, 0)); len(got.cells) != 0 {
					t.Fatalf("mfr %s row %d: cover below every rel built %d cells", p.Name, row, len(got.cells))
				}
				for _, start := range []float64{math.Nextafter(minCellMult*minCF, 0), full[0].rel} {
					for _, ladder := range coverLadders(p, start) {
						set := m.buildCandidates(0, row, ladder[0])
						for _, cover := range ladder[1:] {
							if math.IsInf(set.cover, 1) {
								break
							}
							set, _ = m.extendCandidates(0, row, set, cover)
							checkSetMatchesOracle(t, m, row, cover, set)
						}
					}
				}
			}
		}
	}
}

// TestSketchBoundsContainDraw checks the draw sketch's soundness: every
// code's [sketchLo, sketchHi) holds exactly the draws that encode to
// it, at the code's edges, at 1/16 and at the top draw of the 2048-,
// 8192- and 65536-bit geometries and of the widest row NewModel
// accepts; buckets above code 0 span at most 12.5%; wider rows are
// rejected. On real rows, every vulnerable bit's code holds its draw,
// and a profile copy with VulnFrac 0.5 encodes exactly its invulnerable
// bits as sketchInvulnerable, which no build or extension ever yields.
func TestSketchBoundsContainDraw(t *testing.T) {
	contains := func(x float64) {
		t.Helper()
		c := sketchCode(x)
		if c == sketchInvulnerable || !(sketchLo[c] <= x && x < sketchHi[c]) {
			t.Fatalf("draw %v: code %d bounds [%v, %v) miss it", x, c, sketchLo[c], sketchHi[c])
		}
	}
	for c := 0; c < sketchInvulnerable; c++ {
		lo, hi := sketchLo[c], sketchHi[c]
		for _, x := range []float64{lo, math.Nextafter(lo, math.Inf(1)), (lo + hi) / 2, math.Nextafter(hi, 0)} {
			if got := sketchCode(x); got != uint8(c) {
				t.Fatalf("draw %v in [%v, %v) encodes to %d, want %d", x, lo, hi, got, c)
			}
			contains(x)
		}
		if c > 0 && hi > lo*1.125 {
			t.Fatalf("code %d spans [%v, %v), wider than 12.5%%", c, lo, hi)
		}
	}
	for _, x := range []float64{0, math.SmallestNonzeroFloat64, math.Nextafter(1.0/16, 0), 1.0 / 16, 1, 2048, 8192, 65536} {
		contains(x)
	}
	if sketchCode(math.Nextafter(1.0/16, 0)) != 0 || sketchCode(1.0/16) != 1 {
		t.Fatal("1/16 is not the boundary between codes 0 and 1")
	}
	for _, rowBits := range []float64{2048, 8192, 65536, maxSketchRowBits} {
		top := math.Nextafter(rowBits, 0)
		contains(top)
		if sketchCode(top) >= sketchInvulnerable-1 {
			t.Fatalf("%v-bit rows reach code %d", rowBits, sketchCode(top))
		}
	}
	tooWide := dram.Geometry{Banks: 1, RowsPerBank: 1, SubarrayRows: 1, Chips: 8, ChipWidth: 16, ColumnsPerRow: maxSketchRowBits/128 + 1}
	if _, err := NewModel(Config{Profile: MfrA(), ModuleSeed: 1, Geometry: tooWide}); err == nil {
		t.Fatalf("NewModel accepted %d-bit rows, beyond the sketch", tooWide.RowBits())
	}

	half := *MfrC()
	half.VulnFrac = 0.5
	for _, p := range []*Profile{MfrA(), &half} {
		for _, geo := range []dram.Geometry{tinyGeometry(), wideGeometry()} {
			m := newGeoModel(t, p, 59, geo)
			const row = 9
			set := m.buildCandidates(0, row, 1)
			invulnerable := 0
			for bit, c := range set.sketch {
				h := rng.Hash64(m.seed, 0, row, uint64(bit))
				u := rng.Uniform01(rng.Hash64(h, keyCellMult1))
				if u > p.VulnFrac {
					invulnerable++
					if c != sketchInvulnerable {
						t.Fatalf("mfr %s bit %d: invulnerable bit encoded %d", p.Name, bit, c)
					}
					continue
				}
				if x := float64(geo.RowBits()) * u; c == sketchInvulnerable || !(sketchLo[c] <= x && x < sketchHi[c]) {
					t.Fatalf("mfr %s bit %d: code %d misses draw %v", p.Name, bit, c, x)
				}
			}
			if p.VulnFrac < 1 && invulnerable == 0 {
				t.Fatalf("mfr %s: VulnFrac %v left no invulnerable bit; test vacuous", p.Name, p.VulnFrac)
			}
			if set.vulnerable != geo.RowBits()-invulnerable {
				t.Fatalf("mfr %s: set counts %d vulnerable bits, want %d", p.Name, set.vulnerable, geo.RowBits()-invulnerable)
			}
			for _, cover := range []float64{1.3, 3, math.Inf(1)} {
				set, _ = m.extendCandidates(0, row, set, cover)
				checkSetMatchesOracle(t, m, row, cover, set)
			}
			if len(set.cells) != geo.RowBits()-invulnerable {
				t.Fatalf("mfr %s: complete set has %d cells, want the %d vulnerable bits", p.Name, len(set.cells), geo.RowBits()-invulnerable)
			}
		}
	}
}

// TestExtensionRehashesFewBits pins the sketch pre-filter's work with
// the deterministic candStats counters, for every profile, both
// geometries and salted and unsalted batches. Across an HCfirst
// bisection (ladderHammers up to 1.3× the row HCfirst), extensions
// re-hash at most 10% of the bits they scan. Across every ladder,
// including the steps that complete the row, the bits re-hashed without
// becoming new cells stay under 2% of those scanned. A disabled
// pre-filter re-hashes every bit; one that stops proving bits old
// re-hashes every old cell again.
func TestExtensionRehashesFewBits(t *testing.T) {
	for _, geo := range []dram.Geometry{tinyGeometry(), wideGeometry()} {
		for _, p := range Profiles() {
			for _, batch := range [][]uint64{{0}, {1, 2, 3}} {
				for li := range len(hammerLadders(1)) {
					m := newGeoModel(t, p, 67, geo)
					masks := make([][]uint64, len(batch))
					for i := range masks {
						masks[i] = make([]uint64, geo.RowWords())
					}
					flips := make([]int, len(batch))
					var bisect, all candStats
					for _, row := range []int{5, 140} {
						victim := make([]uint64, geo.RowWords())
						agg := make([]uint64, geo.RowWords())
						fillPattern(victim, "random", uint64(row))
						fillPattern(agg, "random", uint64(row)+1)
						rowHC := m.RowBaseHC(0, row)
						for _, hammers := range hammerLadders(rowHC)[li] {
							before := m.candCache.stats()
							m.DisturbBatch(dram.DisturbContext{
								Bank: 0, Row: row, Ledger: mkLedger(hammers, 34.5, 16.5, 50), Data: victim, Geometry: geo, Up: agg, Down: agg,
							}, batch, masks, flips)
							st := m.candCache.stats()
							if st.extensions == before.extensions {
								continue
							}
							step := candStats{scanned: st.scanned - before.scanned, rehashed: st.rehashed - before.rehashed, cells: st.cells - before.cells}
							all.scanned += step.scanned
							all.rehashed += step.rehashed
							all.cells += step.cells
							if li == 0 && float64(hammers) <= 1.3*rowHC {
								bisect.scanned += step.scanned
								bisect.rehashed += step.rehashed
							}
						}
					}
					if li == 0 {
						if bisect.scanned == 0 {
							t.Fatalf("mfr %s: the bisection never extended; test vacuous", p.Name)
						}
						if bisect.rehashed*10 > bisect.scanned {
							t.Errorf("mfr %s %d-bit batch %v: bisection extensions re-hashed %d of %d scanned bits (> 10%%)",
								p.Name, geo.RowBits(), batch, bisect.rehashed, bisect.scanned)
						}
					}
					if all.scanned == 0 {
						t.Fatalf("mfr %s ladder %d: no extension; test vacuous", p.Name, li)
					}
					if wasted := all.rehashed - all.cells; wasted*50 > all.scanned {
						t.Errorf("mfr %s %d-bit batch %v ladder %d: %d of %d scanned bits re-hashed without becoming cells (> 2%%)",
							p.Name, geo.RowBits(), batch, li, wasted, all.scanned)
					}
				}
			}
		}
	}
}

// TestRadixSortStableOnTies feeds the radix sort heavy ties among keys
// that differ from each other in every byte position, and requires the
// stable comparator order.
func TestRadixSortStableOnTies(t *testing.T) {
	base := math.Float64bits(1.5)
	pool := make([]uint64, 17)
	for j := range pool {
		pool[j] = base ^ uint64(j+1)<<(8*(j%8))
	}
	for _, n := range []int{0, 1, 2, 7, 300, 5000} {
		a := make([]relBit, n)
		for i := range a {
			h := rng.Hash64x2(uint64(n), uint64(i))
			a[i] = relBit{key: pool[h%uint64(len(pool))], bit: int32(i)}
		}
		want := slices.Clone(a)
		slices.SortStableFunc(want, func(x, y relBit) int {
			if x.key != y.key {
				if x.key < y.key {
					return -1
				}
				return 1
			}
			return 0
		})
		got := radixSortRelBits(a, make([]relBit, n))
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: radix order differs from the stable comparator order", n)
		}
	}
}

// diffBatch runs one trial-batched kernel walk and, per salt, the
// reference per-bit path on a copy of the same row, and fails unless
// every flip bitplane is identical. It returns the total flips.
func diffBatch(t *testing.T, kern, ref *Model, row int, led *dram.RowLedger, salts []uint64, victim, agg []uint64) int {
	t.Helper()
	geo := kern.geo
	masks := make([][]uint64, len(salts))
	for i := range masks {
		masks[i] = make([]uint64, geo.RowWords())
	}
	flips := make([]int, len(salts))
	kern.DisturbBatch(dram.DisturbContext{
		Bank: 0, Row: row, Ledger: led, Data: victim, Geometry: geo, Up: agg, Down: agg,
	}, salts, masks, flips)
	total := 0
	for i, salt := range salts {
		data := slices.Clone(victim)
		ledCopy := *led
		ref.SetSalt(salt)
		n := ref.ReferenceDisturb(dram.DisturbContext{
			Bank: 0, Row: row, Ledger: &ledCopy, Data: data, Geometry: geo, Up: agg, Down: agg,
		})
		want := slices.Clone(victim)
		dram.ApplyFlipMask(want, masks[i])
		if n != flips[i] || !slices.Equal(data, want) {
			t.Fatalf("row %d salt %d hammers %d: kernel %d flips, reference %d (bitplanes differ: %v)",
				row, salt, led.Dist[0].Count/2, flips[i], n, !slices.Equal(data, want))
		}
		total += n
	}
	return total
}

// ladderHammers shapes an HCfirst bisection around the row's HCfirst
// rowHC — a first probe, down, up, down, then up past every earlier
// cover, far enough (50×) that the set completes — followed by the
// search cap and the 150K BER count.
func ladderHammers(rowHC float64) []int64 {
	var out []int64
	for _, f := range []float64{0.9, 0.6, 1.3, 1.1, 0.75, 1.2, 2.5, 1.0, 6, 50} {
		out = append(out, int64(f*rowHC))
	}
	return append(out, 512_000, 150_000)
}

// hammerLadders returns ladderHammers and two monotone ladders around
// rowHC: one rising by 6% a step (less than the 2^(1/α) cover step)
// before a last step to 50×, and one by 5× (more than 4×).
func hammerLadders(rowHC float64) [][]int64 {
	var fine, coarse []int64
	for f := 0.8; f < 1.7; f *= 1.06 {
		fine = append(fine, int64(f*rowHC))
	}
	fine = append(fine, int64(50*rowHC))
	for f := 0.3; f < 50; f *= 5 {
		coarse = append(coarse, int64(f*rowHC))
	}
	return [][]int64{ladderHammers(rowHC), fine, coarse}
}

// TestCoverLadderMatchesReference drives fresh models through hammer
// ladders on the tiny and the 8192-bit geometry, salted and unsalted
// batches, so each row's cached set is built small, hit, extended in
// small and large steps and finally completed. Every bitplane must
// equal ReferenceDisturb's, and every cached set the oracle at its
// cover.
func TestCoverLadderMatchesReference(t *testing.T) {
	totalFlips := 0
	for _, geo := range []dram.Geometry{tinyGeometry(), wideGeometry()} {
		for _, p := range Profiles() {
			ref := newGeoModel(t, p, 43, geo)
			for _, batch := range [][]uint64{{0}, {1, 2, 3}} {
				for li := range len(hammerLadders(1)) {
					kern := newGeoModel(t, p, 43, geo)
					for _, row := range []int{5, 140} {
						victim := make([]uint64, geo.RowWords())
						agg := make([]uint64, geo.RowWords())
						fillPattern(victim, "random", uint64(row))
						fillPattern(agg, "random", uint64(row)+1)
						key := uint64(row)
						last := math.Inf(-1)
						for _, hammers := range hammerLadders(kern.RowBaseHC(0, row))[li] {
							led := mkLedger(hammers, 34.5, 16.5, 50)
							totalFlips += diffBatch(t, kern, ref, row, led, batch, victim, agg)
							set, _ := kern.candCache.cachedSet(key)
							if set.cover < last {
								t.Fatalf("mfr %s row %d: cached cover shrank %v → %v", p.Name, row, last, set.cover)
							}
							if set.cover != last {
								checkSetMatchesOracle(t, kern, row, set.cover, set)
							}
							last = set.cover
						}
						if !math.IsInf(last, 1) {
							t.Fatalf("mfr %s row %d ladder %d: the top of the ladder left the cover at %v, want +Inf", p.Name, row, li, last)
						}
					}
					if st := kern.candCache.stats(); st.extensions == 0 {
						t.Fatalf("mfr %s batch %v ladder %d: never extended a cover; test vacuous", p.Name, batch, li)
					}
				}
			}
		}
	}
	if totalFlips == 0 {
		t.Fatal("ladder observed no flips; test vacuous")
	}
}

// TestForkRaceExtendsSharedCover runs 8 forks of one model on
// goroutines, all extending the same row of their shared cache to
// different cutoffs, with existence walks (DisturbAny) interleaved
// between the full ones. Every bitplane must match the reference
// computed up front, every existence answer must agree with it, and
// the cached cover must never shrink (`make race` runs this under the
// race detector).
func TestForkRaceExtendsSharedCover(t *testing.T) {
	const forks = 8
	p := MfrC()
	parent := newTinyModel(t, p, 47)
	ref := newTinyModel(t, p, 47)
	geo := parent.geo
	const row = 200
	key := uint64(row)
	victim := make([]uint64, geo.RowWords())
	agg := make([]uint64, geo.RowWords())
	fillPattern(victim, "random", 5)
	fillPattern(agg, "random", 6)
	salts := []uint64{1, 2}
	rowHC := ref.RowBaseHC(0, row)

	// Per fork, a hammer ladder of its own (different cuts per fork and
	// step) and the reference bitplanes for it.
	hammers := make([][]int64, forks)
	want := make([][][]uint64, forks)
	for f := range hammers {
		for step := 0; step < 6; step++ {
			h := int64(rowHC * (0.5 + 0.15*float64(f) + 0.4*float64(step)))
			hammers[f] = append(hammers[f], h)
			for _, salt := range salts {
				data := slices.Clone(victim)
				ref.SetSalt(salt)
				ref.ReferenceDisturb(dram.DisturbContext{
					Bank: 0, Row: row, Ledger: mkLedger(h, 34.5, 16.5, 50), Data: data, Geometry: geo, Up: agg, Down: agg,
				})
				want[f] = append(want[f], data)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, forks+1)
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		last := math.Inf(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := parent.candCache.cachedCover(key)
			if c < last {
				errs <- "cached cover shrank"
				return
			}
			last = c
		}
	}()
	for f := 0; f < forks; f++ {
		m := parent.Fork()
		wg.Add(1)
		go func(f int, m *Model) {
			defer wg.Done()
			masks := [][]uint64{make([]uint64, geo.RowWords()), make([]uint64, geo.RowWords())}
			flips := make([]int, len(salts))
			for step, h := range hammers[f] {
				ctx := dram.DisturbContext{
					Bank: 0, Row: row, Ledger: mkLedger(h, 34.5, 16.5, 50), Data: victim, Geometry: geo, Up: agg, Down: agg,
				}
				if (f+step)%2 == 0 {
					for si, salt := range salts {
						m.SetSalt(salt)
						if m.DisturbAny(ctx) == slices.Equal(victim, want[f][step*len(salts)+si]) {
							errs <- "fork existence walk disagrees with the reference"
							return
						}
					}
				}
				m.DisturbBatch(ctx, salts, masks, flips)
				for si := range salts {
					got := slices.Clone(victim)
					dram.ApplyFlipMask(got, masks[si])
					if !slices.Equal(got, want[f][step*len(salts)+si]) {
						errs <- "fork bitplane differs from the reference"
						return
					}
				}
			}
		}(f, m)
	}
	wg.Wait()
	close(stop)
	<-watched
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := parent.candCache.stats(); st.misses+st.extensions < 2 {
		t.Fatalf("forks built the row %d times; want a first build and an extension", st.misses+st.extensions)
	}
}

// hcFirstSearch mirrors Tester.HCFirst's bisection (start 256K, step
// 128K halving to 512, cap 512K) over Disturb on a fresh victim row and
// returns the lowest failing hammer count (0: none).
func hcFirstSearch(m *Model, row int, victim, agg []uint64) int64 {
	geo := m.geo
	probe := func(hc int64) bool {
		n, _ := m.Disturb(dram.DisturbContext{
			Bank: 0, Row: row, Ledger: mkLedger(hc, 34.5, 16.5, 50), Data: victim, Geometry: geo, Up: agg, Down: agg,
		})
		return n > 0
	}
	hc, lowest := int64(256_000), int64(0)
	for delta := int64(128_000); delta >= 512; delta /= 2 {
		if probe(hc) {
			if lowest == 0 || hc < lowest {
				lowest = hc
			}
			hc = max(hc-delta, 512)
		} else {
			hc = min(hc+delta, 512_000)
		}
	}
	if probe(hc) && (lowest == 0 || hc < lowest) {
		lowest = hc
	}
	return lowest
}

// TestHCFirstSearchMaterializesPartialRow pins what the cover bound
// buys: an HCfirst search on a fresh tiny-geometry row materializes
// strictly fewer cells than the row has, and rebuilds its set at most
// ⌈log₂(rowBits)⌉ times.
func TestHCFirstSearchMaterializesPartialRow(t *testing.T) {
	for _, p := range Profiles() {
		for _, salt := range []uint64{0, 1} {
			m := newTinyModel(t, p, 53)
			m.SetSalt(salt)
			rowBits := m.geo.RowBits()
			victim := make([]uint64, m.geo.RowWords())
			agg := make([]uint64, m.geo.RowWords())
			fillPattern(victim, "checkered", 0)
			fillPattern(agg, "checkered", 0)
			for i := range agg {
				agg[i] = ^agg[i]
			}
			const row = 100
			found := hcFirstSearch(m, row, victim, agg)
			st := m.candCache.stats()
			t.Logf("mfr %s salt %d: HCfirst %d, %d builds, %d cells of %d", p.Name, salt, found, st.misses+st.extensions, st.cells, rowBits)
			if found == 0 {
				t.Fatalf("mfr %s salt %d: no flips up to 512K; test vacuous", p.Name, salt)
			}
			if st.cells >= rowBits {
				t.Fatalf("mfr %s salt %d: search materialized %d cells, row has %d", p.Name, salt, st.cells, rowBits)
			}
			if builds, limit := st.misses+st.extensions, int(math.Ceil(math.Log2(float64(rowBits)))); builds > limit {
				t.Fatalf("mfr %s salt %d: %d builds, want ≤ %d", p.Name, salt, builds, limit)
			}
		}
	}
}

// BenchmarkBuildCandidates measures one cold candidate build of a
// tiny-geometry row — at the cutoff of an HCfirst search's first probe
// (256K hammers) and for the complete row — and one ladder step on the
// cached probe set: its extension by the 2^(1/α) cover step.
func BenchmarkBuildCandidates(b *testing.B) {
	m := newTinyModel(b, MfrA(), 61)
	const row = 100
	rp := m.rowParamsFor(0, row)
	probe := m.EffectiveHammers(mkLedger(256_000, 34.5, 16.5, 50), rp.tinf) / rp.hc * boundPad
	for _, bc := range []struct {
		name  string
		cover float64
	}{{"hcfirst-probe", probe}, {"complete", math.Inf(1)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			cells := 0
			for i := 0; i < b.N; i++ {
				cells = len(m.buildCandidates(0, row, bc.cover).cells)
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
	b.Run("extend", func(b *testing.B) {
		b.ReportAllocs()
		base := m.buildCandidates(0, row, probe)
		next := probe * math.Pow(2, 1/m.p.TailAlpha)
		var w buildWork
		for i := 0; i < b.N; i++ {
			_, w = m.extendCandidates(0, row, base, next)
		}
		b.ReportMetric(float64(w.cells), "cells")
		b.ReportMetric(float64(w.rehashed), "rehashed")
	})
}
