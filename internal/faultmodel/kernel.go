package faultmodel

import (
	"math"
	"sort"
	"sync"

	"rowhammer/internal/dram"
	"rowhammer/internal/rng"
)

// The candidate-cell disturb kernel.
//
// Every characterization experiment reduces to asking, millions of
// times, "which cells in this row flip under this effective hammer
// count?". The reference path (disturbReference) answers by re-hashing
// every bit of the row on every call. This kernel instead memoizes,
// per (bank, row), a candidate-cell set with all hash-derived
// parameters precomputed, sorted ascending by (rel, bit) — rel being
// the cell threshold relative to the row HCfirst. A disturb call first
// computes the cutoff reachable at the ledger's effective hammer count,
// then binary-searches it in the set and walks only the candidates
// below it, evaluating the remaining per-call predicates lazily per
// candidate. The walk is batched over trials and temperatures: the
// cutoff search and the stored-data orientation run once per
// candidate, the gating temperature once per temperature column, and
// only the noise comparison per (column, salt), each pair accumulating
// its own flip bitplane (see disturbBatch, Model.SetTempBatch and the
// replay cache in replay.go).
//
// A set is cover-bounded: it holds exactly the cells with rel ≤ its
// cover, because a walk never reaches past its cutoff. A row's first
// touch builds up to the cutoff of that call; a later call with a
// higher cutoff extends the set with the cover raised by at least
// 2^(1/α), which roughly doubles the expected cell count (cells below a
// threshold grow as threshold^α). A set that admits every vulnerable
// cell has cover +Inf and is never extended. The builder skips most
// out-of-cover cells before paying for math.Pow (a padded bound on the
// uniform draw, see buildCandidates), orders the kept cells with a
// stable O(n) radix sort on rel's IEEE-754 bits, and resolves the
// temperature gates only for them, into one exact-size allocation.
//
// An extension costs in proportion to its new cells, not to the row:
// the first build also records a one-byte sketch of every bit's draw
// (sketchCode), and extendCandidates re-hashes only the bits whose
// sketch bucket cannot prove them either above the new cover or
// already in the old set. The sketch only rejects — the full hash and
// Pow still decide every re-hashed bit — so an extension is exact.
// Every new cell's rel exceeds the old cover, which is at least every
// old rel, so the new cells sort after the old ones and the extended
// set is the old cells with the sorted new cells appended.
//
// Equivalence with the reference path is load-bearing: the builder
// replays the exact hash draws and float expressions of
// disturbReference (rel grouping included — float multiplication is
// not associative), and the differential tests in kernel_test.go and
// cover_test.go assert bit-identical flip sets across profiles,
// temperatures, data patterns, seeds, salts and cover ladders.

// tempMargin is half of the 5 °C test step (exclusive): the slack
// around a cell's vulnerable range and gap point.
const tempMargin = 2.4

// candidate is one vulnerable cell of a row with every hash-derived
// parameter resolved at build time. 48 bytes.
type candidate struct {
	rel     float64 // mult × colFactor: threshold ≡ rowHC × rel (sort key)
	h       uint64  // per-cell hash (feeds the salted trial noise)
	loGate  float64 // reject when tempC < loGate (−Inf: censored at 50 °C)
	hiGate  float64 // reject when tempC > hiGate (+Inf: censored at 90 °C)
	gapT    float64 // skipped interior temperature point (NaN: no gap)
	bit     int32
	charged uint8 // 1 ⇒ true-cell
}

// candidateBytes is the approximate per-cell cache cost, for sizing
// the LRU.
const candidateBytes = 48

// candSet is one row's cached candidate cells: every vulnerable cell
// with rel ≤ cover, sorted by (rel, bit). cover is +Inf once the set
// holds every vulnerable cell of the row. While it does not, sketch
// holds one sketchCode byte per bit of the row (rowBits bytes, counted
// in the cache's byte budget) for extendCandidates; the build that
// creates the sketch is its only writer, and sets sharing it never
// mutate it. vulnerable counts the row's vulnerable bits.
type candSet struct {
	cells      []candidate
	cover      float64
	sketch     []uint8
	vulnerable int
}

// candCacheBudgetBytes bounds the total candidate-cache memory per
// cache (shared across every model attached to it). 64 MiB holds
// hundreds of complete rows at bench geometries and ~170 at the
// paper-scale 8192-bit geometry (~390 KB of candidates per complete
// row); cover-bounded rows take less, plus their rowBits-byte sketch.
const candCacheBudgetBytes = 64 << 20

// candShardCount is the power-of-two number of candLRU shards. Each
// shard has its own lock and an equal slice of the byte budget, so
// parallel measurement cores touching different rows lock different
// shards instead of serializing on one cache.
const candShardCount = 8

// boundPad relatively pads the kernel's float bounds — the walk cutoff
// and the builder's pre-Pow bound on the uniform draw — so that a few
// ulps of rounding can never exclude a cell the exact compares would
// accept; like trialNoiseFloor/Ceil, it only makes a bound more
// conservative.
const boundPad = 1 + 1e-9

// The draw sketch: one byte per bit of a row, bucketing the bit's draw
// x = rowBits·u by the top 3 mantissa bits of its float64, so a bucket
// spans at most 12.5% of its lower bound. Truncating the bits makes the
// bucket bounds exact: sketchLo[c] ≤ x < sketchHi[c]. Code 0 holds
// every x < 1/16 and sketchInvulnerable marks a bit outside the
// vulnerable fraction.
const (
	sketchShift        = 52 - 3
	sketchBias         = (1023-4)<<3 - 1 // x = 1/16 is code 1
	sketchInvulnerable = 255
	// maxSketchRowBits keeps every draw (x < rowBits) at or below code
	// 248; NewModel rejects wider rows.
	maxSketchRowBits = 1 << 27
)

// sketchCode buckets a draw x ≥ 0 (x < maxSketchRowBits).
func sketchCode(x float64) uint8 {
	return uint8(max(int(math.Float64bits(x)>>sketchShift)-sketchBias, 0))
}

// sketchLo/sketchHi are each code's exact draw bounds; the invulnerable
// code's are +Inf (extendCandidates tests for it before using them).
var sketchLo, sketchHi = func() (lo, hi [256]float64) {
	for c := 1; c < sketchInvulnerable; c++ {
		lo[c] = math.Float64frombits(uint64(c+sketchBias) << sketchShift)
		hi[c-1] = lo[c]
	}
	hi[sketchInvulnerable-1] = math.Float64frombits(uint64(sketchInvulnerable+sketchBias) << sketchShift)
	lo[sketchInvulnerable], hi[sketchInvulnerable] = math.Inf(1), math.Inf(1)
	return lo, hi
}()

// buildCandidates generates the (rel, bit)-sorted candidate set of one
// row holding exactly the cells with rel ≤ cover, and the row's draw
// sketch. The per-cell draws mirror disturbReference exactly, using the
// fixed-arity hash fast paths (bit-identical to the variadic Hash64).
func (m *Model) buildCandidates(bank, row int, cover float64) candSet {
	rowBits := m.geo.RowBits()
	cw := m.geo.ChipWidth
	chips := m.geo.Chips
	alpha := m.p.TailAlpha
	invAlpha := 1 / alpha
	// rel = (rowBits·u)^(1/α)·cf (mult clamped from below) is at most
	// cover only if rowBits·u ≤ cover^α·cf^(−α); cells above the padded
	// bound are skipped without a Pow, the rest get the exact check.
	bound := math.Pow(cover, alpha) * boundPad
	keys := m.buildKeys[:0]
	sketch := make([]uint8, rowBits)
	vulnerable := 0
	// The (seed, bank, row) fold is shared by every bit of the row;
	// Hash64Suffix completes it per bit, bit-identically to Hash64x4.
	prefix := rng.HashPrefix(m.seed, uint64(bank), uint64(row))
	// bit = (col·chips + chip)·cw + line, so this nest visits bits in
	// ascending order without dividing per bit.
	bit := 0
	for col := 0; col < m.geo.ColumnsPerRow; col++ {
		for chip := 0; chip < chips; chip++ {
			cfs := m.colFactor[chip][col*cw : (col+1)*cw]
			negs := m.cfNegAlpha[chip][col*cw : (col+1)*cw]
			for line := 0; line < cw; line, bit = line+1, bit+1 {
				h := rng.Hash64Suffix(prefix, uint64(bit))
				u := rng.Uniform01(rng.Hash64x2(h, keyCellMult1))
				if u > m.p.VulnFrac {
					sketch[bit] = sketchInvulnerable
					continue
				}
				vulnerable++
				x := float64(rowBits) * u
				sketch[bit] = sketchCode(x)
				if x > bound*negs[line] {
					continue
				}
				rel := cellRel(x, invAlpha, cfs[line])
				if rel > cover {
					continue
				}
				keys = append(keys, relBit{key: math.Float64bits(rel), bit: int32(bit)})
			}
		}
	}
	set := candSet{cover: cover, sketch: sketch, vulnerable: vulnerable}
	if len(keys) == vulnerable {
		set.cover, set.sketch = math.Inf(1), nil
	}
	set.cells = m.resolveCells(prefix, keys, nil)
	return set
}

// cellRel is the rel of a vulnerable cell with draw x and column
// factor cf: the Pareto multiplier x^(1/α), clamped from below, times
// cf — the exact float expression of disturbReference.
func cellRel(x, invAlpha, cf float64) float64 {
	mult := math.Pow(x, invAlpha)
	if mult < minCellMult {
		mult = minCellMult
	}
	return mult * cf
}

// extendCandidates returns old extended to cover (> old.cover, which
// is finite, so old has a sketch): the cells with old.cover < rel ≤
// cover are materialized and appended to a copy of old.cells. Only
// the bits whose sketch bucket leaves them in that band are re-hashed;
// w reports the scan.
func (m *Model) extendCandidates(bank, row int, old candSet, cover float64) (set candSet, w buildWork) {
	rowBits := m.geo.RowBits()
	cw := m.geo.ChipWidth
	chips := m.geo.Chips
	alpha := m.p.TailAlpha
	invAlpha := 1 / alpha
	// x > bound·cf^(−α) ⇒ rel > cover, as in buildCandidates. x <
	// inner·cf^(−α) ⇒ x^(1/α)·cf < old.cover with the same padding the
	// other way, so the cell is in old unless its clamp minCellMult·cf
	// exceeds old.cover (that product is exactly its rel then).
	bound := math.Pow(cover, alpha) * boundPad
	inner := math.Pow(old.cover, alpha) / boundPad
	keys := m.buildKeys[:0]
	prefix := rng.HashPrefix(m.seed, uint64(bank), uint64(row))
	sketch := old.sketch[:rowBits]
	bit := 0
	for col := 0; col < m.geo.ColumnsPerRow; col++ {
		for chip := 0; chip < chips; chip++ {
			cfs := m.colFactor[chip][col*cw : (col+1)*cw]
			negs := m.cfNegAlpha[chip][col*cw : (col+1)*cw]
			for line := 0; line < cw; line, bit = line+1, bit+1 {
				c := sketch[bit]
				if c == sketchInvulnerable || sketchLo[c] > bound*negs[line] {
					continue
				}
				if sketchHi[c] <= inner*negs[line] && minCellMult*cfs[line] <= old.cover {
					continue
				}
				w.rehashed++
				h := rng.Hash64Suffix(prefix, uint64(bit))
				x := float64(rowBits) * rng.Uniform01(rng.Hash64x2(h, keyCellMult1))
				if x > bound*negs[line] {
					continue
				}
				rel := cellRel(x, invAlpha, cfs[line])
				if rel <= old.cover || rel > cover {
					continue
				}
				keys = append(keys, relBit{key: math.Float64bits(rel), bit: int32(bit)})
			}
		}
	}
	w.scanned = rowBits
	w.cells = len(keys)
	set = candSet{cover: cover, sketch: old.sketch, vulnerable: old.vulnerable}
	if len(old.cells)+len(keys) == old.vulnerable {
		set.cover, set.sketch = math.Inf(1), nil
	}
	set.cells = m.resolveCells(prefix, keys, old.cells)
	return set, w
}

// resolveCells radix-sorts the kept keys (in ascending bit order, each
// rel above every rel in head) into one exact-size allocation after a
// copy of head, resolving each new cell's hash-derived parameters from
// the row's hash prefix. keys is m.buildKeys' scratch, kept for reuse.
func (m *Model) resolveCells(prefix uint64, keys []relBit, head []candidate) []candidate {
	if cap(m.buildTmp) < len(keys) {
		m.buildTmp = make([]relBit, cap(keys))
	}
	sorted := radixSortRelBits(keys, m.buildTmp[:len(keys)])
	m.buildKeys = keys

	cells := make([]candidate, len(head)+len(sorted))
	copy(cells, head)
	for i, k := range sorted {
		h := rng.Hash64Suffix(prefix, uint64(k.bit))
		// Resolve the temperature range and gap draws once; censored
		// bounds become infinite gates and "no gap" becomes NaN, so
		// the walk needs only three float compares.
		lo, hi := m.cellTempRange(h)
		loGate := math.Inf(-1)
		if lo > 50 {
			loGate = lo - tempMargin
		}
		hiGate := math.Inf(1)
		if hi < 90 {
			hiGate = hi + tempMargin
		}
		gapT := math.NaN()
		if hi-lo >= 10 && m.p.GapProb > 0 {
			if rng.Uniform01(rng.Hash64x2(h, keyCellGapU)) < m.p.GapProb {
				interior := int(hi-lo)/5 - 1
				pick := int(rng.Uniform01(rng.Hash64x2(h, keyCellGapT)) * float64(interior))
				if pick >= interior {
					pick = interior - 1
				}
				gapT = lo + float64(5*(pick+1))
			}
		}
		cells[len(head)+i] = candidate{
			rel:     math.Float64frombits(k.key),
			h:       h,
			loGate:  loGate,
			hiGate:  hiGate,
			gapT:    gapT,
			bit:     k.bit,
			charged: uint8(h & 1),
		}
	}
	return cells
}

// relBit is one kept cell's sort record: the IEEE-754 bits of its rel
// (for rel > 0 the bit patterns order exactly like the floats) and its
// bit index.
type relBit struct {
	key uint64
	bit int32
}

// radixSortRelBits sorts a by key with a stable LSD radix sort over
// 8-bit digits, skipping digits on which every key agrees, and returns
// the buffer holding the result (a or tmp; len(tmp) == len(a)). a
// arrives in ascending bit order and stability keeps equal keys in that
// order, so the result is exactly the (rel, bit) order.
func radixSortRelBits(a, tmp []relBit) []relBit {
	n := int32(len(a))
	if n < 2 {
		return a
	}
	var counts [8][256]int32
	for _, e := range a {
		k := e.key
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := a, tmp
	for d := range counts {
		shift := uint(8 * d)
		c := &counts[d]
		if c[byte(src[0].key>>shift)] == n {
			continue
		}
		var sum int32
		for i, v := range c {
			c[i] = sum
			sum += v
		}
		for _, e := range src {
			b := byte(e.key >> shift)
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// candidatesUpTo returns a candidate set of the row holding at least
// every cell with rel ≤ cut, building or extending the cached set as
// needed. The returned slice is read-only: it may be shared with other
// models attached to the same cache on other goroutines.
func (m *Model) candidatesUpTo(bank, row int, cut float64) []candidate {
	key := uint64(bank)<<32 | uint64(uint32(row))
	set, ok := m.candCache.get(key, cut)
	if ok && set.cover >= cut {
		return set.cells
	}
	if !ok {
		set = m.buildCandidates(bank, row, cut)
		m.candCache.put(key, set, buildWork{cells: len(set.cells)})
		return set.cells
	}
	set, w := m.extendCandidates(bank, row, set, max(cut, set.cover*math.Pow(2, 1/m.p.TailAlpha)))
	m.candCache.put(key, set, w)
	return set.cells
}

// walkCut is the rel cutoff of a walk at effective hammer count heff:
// heff/rowHC padded by boundPad, divided by trialNoiseFloor when any
// walked salt is non-zero. No cell above it can flip.
func walkCut(rp rowParams, heff float64, salted bool) float64 {
	cut := heff / rp.hc * boundPad
	if salted {
		cut /= trialNoiseFloor
	}
	return cut
}

// walkCol is one temperature column of a kernel walk: one ledger of
// the row, with its effective hammer count and gating temperature.
type walkCol struct {
	heff, tempC float64
	led         dram.RowLedger
}

// disturbBatch is the batched kernel walk over temperature columns and
// trial salts. A cell can flip only when heff·coupling ≥
// rowHC·rel·noise with coupling ≤ 1 and noise ≥ trialNoiseFloor, so
// candidates with rel above heff/rowHC (divided by the noise floor when
// salted, padded by boundPad) are unreachable under every salt: the set
// is only built up to the largest column's cutoff and the sorted order
// lets a binary search skip everything past it; a column with a lower
// cutoff rejects the cells beyond its own through the exact compares.
// masks[ci·len(salts)+si] (len == len(ctx.Data), zeroed here) and
// flips[ci·len(salts)+si] receive column ci's salt-si flip bitplane and
// count.
func (m *Model) disturbBatch(ctx dram.DisturbContext, rp rowParams, cols []walkCol, salts []uint64, masks [][]uint64, flips []int) {
	for i := range masks {
		clearWords(masks[i])
		flips[i] = 0
	}

	salted := false
	for _, s := range salts {
		if s != 0 {
			salted = true
			break
		}
	}
	cut := 0.0
	for _, col := range cols {
		cut = max(cut, walkCut(rp, col.heff, salted))
	}
	cells := m.candidatesUpTo(ctx.Bank, ctx.Row, cut)
	n := sort.Search(len(cells), func(i int) bool { return cells[i].rel > cut })
	// A cell's noise depends on the cell and the salt alone: with
	// several columns, noise[si] keeps its factor under salts[si] for
	// the others. One column skips that bookkeeping, a few percent of
	// its walk.
	ns := len(salts)
	shared, noise := len(cols) > 1, m.walkNoise[:0]
	if shared {
		if cap(m.walkNoise) < ns {
			m.walkNoise = make([]noiseDraw, ns)
		}
		noise = m.walkNoise[:ns]
		clear(noise)
	}

	up, down := ctx.Up, ctx.Down
	for i := 0; i < n; i++ {
		c := &cells[i]

		word, off := int(c.bit)>>6, uint(c.bit)&63
		stored := ctx.Data[word] >> off & 1
		if stored != uint64(c.charged) {
			continue
		}

		coupling, base := 0.0, 0.0
		for ci := range cols {
			col := &cols[ci]
			// Gate comparisons are false for −Inf/+Inf/NaN exactly where
			// tempInRange accepts, so censored ranges and gap-free cells
			// pass for free.
			if col.tempC < c.loGate || col.tempC > c.hiGate || math.Abs(col.tempC-c.gapT) < tempMargin {
				continue
			}
			if coupling == 0 {
				coupling = minCoupling
				if bitDiffers(up, word, off, stored) || bitDiffers(down, word, off, stored) {
					coupling = 1.0
				}
				base = rp.hc * c.rel
			}
			eff := col.heff * coupling
			ms, fs := masks[ci*ns:(ci+1)*ns], flips[ci*ns:(ci+1)*ns]
			for si, salt := range salts {
				if salt == 0 {
					if eff < base {
						continue
					}
				} else if eff < base*trialNoiseFloor {
					// Below even the most favorable truncated noise draw.
					continue
				} else if eff < base*trialNoiseCeil {
					// Marginal band: only here does the outcome depend on
					// the cell's actual noise draw, so only here do we pay
					// for it — once per (cell, salt) that lands in the band.
					var f float64
					if shared {
						if nd := &noise[si]; nd.cell != i+1 {
							nd.cell, nd.f = i+1, m.trialNoiseFactor(c.h, salt)
						}
						f = noise[si].f
					} else {
						f = m.trialNoiseFactor(c.h, salt)
					}
					if eff < base*f {
						continue
					}
				}
				ms[si][word] |= 1 << off
				fs[si]++
			}
		}
	}
}

// noiseDraw is a cell's trial-noise factor f under one salt, drawn by
// the cell at walk index cell−1 (0: none yet).
type noiseDraw struct {
	cell int
	f    float64
}

// anyInitialSteps is how far below its cutoff an existence walk starts
// on a row whose cached cover falls short: at cut·2^(−anyInitialSteps/α),
// anyInitialSteps cover-ladder steps down, where the row holds about
// 2^(−anyInitialSteps) of the cells below the cut. The walk then
// extends one step at a time until a cell flips or the cover reaches
// the cut. Measured as the CPU time of Figs. 5, 7, 11 and 14 at tiny
// scale, 8 seeds, one worker, on a 2-CPU Xeon VM (3.7 s with full-read
// probes): 2.86 s starting at the cut itself (0 steps), 2.60 s at 2,
// 2.52–2.71 s at 4–8, 2.91 s at 12 and 3.14 s at 32, where the extra
// extensions' sketch scans outweigh the cells they save.
const anyInitialSteps = 6

// disturbAny is the existence-only kernel walk: it reports whether
// any cell with rel ≤ cut flips under the current salt, in (rel, bit)
// order, stopping at the first flip. The row's set is built lazily up
// the cover ladder: a cached cover below the cut is first raised to
// the starting cover (cut·2^(−anyInitialSteps/α)), the cells the set
// holds are walked, and while none flips the cover is extended by
// 2^(1/α), capped at the cut, walking only the appended cells. Sets go
// to the shared cache (put keeps the widest), so a later full walk
// extends from wherever this one stopped.
func (m *Model) disturbAny(ctx dram.DisturbContext, rp rowParams, heff, tempC, cut float64) bool {
	key := uint64(ctx.Bank)<<32 | uint64(uint32(ctx.Row))
	set, cached := m.candCache.get(key, cut)
	step := math.Pow(2, 1/m.p.TailAlpha)
	start := cut * math.Pow(step, -anyInitialSteps)
	if !cached {
		set = m.buildCandidates(ctx.Bank, ctx.Row, start)
		m.candCache.put(key, set, buildWork{cells: len(set.cells)})
	}
	walked := 0
	for {
		n := walked + sort.Search(len(set.cells)-walked, func(i int) bool { return set.cells[walked+i].rel > cut })
		if m.anyCellFlips(ctx, rp, heff, tempC, set.cells[walked:n]) {
			return true
		}
		if set.cover >= cut {
			return false
		}
		// Every cached cell is below the cover, hence below the cut, and
		// was just walked; an extension appends only cells above it.
		walked = n
		var w buildWork
		set, w = m.extendCandidates(ctx.Bank, ctx.Row, set, min(cut, max(start, set.cover*step)))
		m.candCache.put(key, set, w)
	}
}

// anyCellFlips reports whether any of cells flips under the current
// salt. Its per-cell predicates are disturbBatch's for one salt, kept
// inline in both loops: factored into shared functions (which the
// compiler does not inline), they cost the batched walk a few percent
// of Table 3 and Fig. 4 CPU. TestDisturbAnyMatchesDisturb holds the
// two loops to the same answers.
func (m *Model) anyCellFlips(ctx dram.DisturbContext, rp rowParams, heff, tempC float64, cells []candidate) bool {
	up, down := ctx.Up, ctx.Down
	salt := m.salt
	for i := range cells {
		c := &cells[i]
		word, off := int(c.bit)>>6, uint(c.bit)&63
		stored := ctx.Data[word] >> off & 1
		if stored != uint64(c.charged) {
			continue
		}
		if tempC < c.loGate || tempC > c.hiGate || math.Abs(tempC-c.gapT) < tempMargin {
			continue
		}
		coupling := minCoupling
		if bitDiffers(up, word, off, stored) || bitDiffers(down, word, off, stored) {
			coupling = 1.0
		}
		base := rp.hc * c.rel
		eff := heff * coupling
		if salt == 0 {
			if eff < base {
				continue
			}
		} else if eff < base*trialNoiseFloor {
			continue
		} else if eff < base*trialNoiseCeil && eff < base*m.trialNoiseFactor(c.h, salt) {
			continue
		}
		return true
	}
	return false
}

// clearWords zeroes a word slice (compiles to a memclr).
func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// candLRU is a sharded, byte-budgeted, least-recently-used cache of
// candidate sets, keyed like rowCache by bank<<32|row. The key hashes
// onto one of candShardCount shards, each with its own lock and an
// equal slice of the global byte budget (the per-shard budgets sum to
// candCacheBudgetBytes), so parallel measurement cores sharing one
// cache do not serialize on a single mutex.
type candLRU struct {
	shards [candShardCount]candShard
}

type candShard struct {
	mu          sync.Mutex
	budgetBytes int
	bytes       int
	entries     map[uint64]*candEntry
	head        *candEntry // most recently used
	tail        *candEntry
	stats       candStats
}

type candEntry struct {
	key        uint64
	set        candSet
	bytes      int
	prev, next *candEntry
}

// candStats counts one shard's traffic, under the shard lock.
type candStats struct {
	hits       int // lookups whose cached cover reached the cutoff
	misses     int // lookups of an uncached row
	extensions int // lookups whose cached cover fell short of the cutoff
	cells      int // candidates materialized by the builds put here
	scanned    int // sketch entries the extensions put here examined
	rehashed   int // bits whose draw those extensions recomputed
	evictions  int
}

// buildWork is what one build or extension did, recorded by put.
type buildWork struct {
	cells    int // candidates materialized (an extension's new ones)
	scanned  int
	rehashed int
}

// newCandLRU builds a sharded LRU holding at most budgetBytes of
// candidate data in total, split evenly across the shards.
func newCandLRU(budgetBytes int) *candLRU {
	per := budgetBytes / candShardCount
	if per < 1 {
		per = 1
	}
	l := &candLRU{}
	for i := range l.shards {
		l.shards[i].budgetBytes = per
		l.shards[i].entries = make(map[uint64]*candEntry)
	}
	return l
}

// shardFor selects the shard for a key via a splitmix64 finalizer, so
// the adjacent rows a hammer program touches spread across shards.
func (l *candLRU) shardFor(key uint64) *candShard {
	h := key
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return &l.shards[h&(candShardCount-1)]
}

// get returns the cached set of key, if any, for a walk reaching cut;
// the caller extends it when its cover falls short.
func (l *candLRU) get(key uint64, cut float64) (candSet, bool) {
	s := l.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.stats.misses++
		s.mu.Unlock()
		return candSet{}, false
	}
	if e.set.cover >= cut {
		s.stats.hits++
	} else {
		s.stats.extensions++
	}
	s.moveToFront(e)
	set := e.set
	s.mu.Unlock()
	return set, true
}

// put caches set under key, counting the work w that produced it. An
// entry is never replaced by one of smaller cover: models sharing the
// cache extend the same row concurrently, and the widest build must
// win.
func (l *candLRU) put(key uint64, set candSet, w buildWork) {
	cost := len(set.cells)*candidateBytes + len(set.sketch)
	s := l.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.cells += w.cells
	s.stats.scanned += w.scanned
	s.stats.rehashed += w.rehashed
	if e, ok := s.entries[key]; ok {
		if set.cover < e.set.cover {
			return
		}
		s.bytes += cost - e.bytes
		e.set, e.bytes = set, cost
		s.moveToFront(e)
	} else {
		e := &candEntry{key: key, set: set, bytes: cost}
		s.entries[key] = e
		s.pushFront(e)
		s.bytes += cost
	}
	// Evict least-recently-used entries beyond the shard budget. The
	// newest entry always survives, so a row larger than the whole
	// budget is still cached (and evicted by the next insert).
	for s.bytes > s.budgetBytes && len(s.entries) > 1 {
		evict := s.tail
		s.unlink(evict)
		delete(s.entries, evict.key)
		s.bytes -= evict.bytes
		s.stats.evictions++
	}
}

// stats sums the shards' traffic counters (test and diagnostic use).
func (l *candLRU) stats() candStats {
	var t candStats
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		t.hits += s.stats.hits
		t.misses += s.stats.misses
		t.extensions += s.stats.extensions
		t.cells += s.stats.cells
		t.scanned += s.stats.scanned
		t.rehashed += s.stats.rehashed
		t.evictions += s.stats.evictions
		s.mu.Unlock()
	}
	return t
}

// totalBytes sums the cached candidate bytes across shards (test and
// diagnostic use).
func (l *candLRU) totalBytes() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// lenEntries counts cached rows across shards (test use).
func (l *candLRU) lenEntries() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

func (s *candShard) pushFront(e *candEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *candShard) unlink(e *candEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *candShard) moveToFront(e *candEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
