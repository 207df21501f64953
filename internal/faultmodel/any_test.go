package faultmodel

import (
	"math"
	"testing"

	"rowhammer/internal/dram"
)

// anyCacheStates are the cache states an existence walk can meet, each
// set up on m for a probe whose walk cutoff is cut: no set, a set below
// the cutoff, a set above it, the complete set, a set built by another
// fork of the model, and a set evicted from the cache.
var anyCacheStates = []struct {
	name  string
	setup func(m *Model, row int, cut float64) *Model
}{
	{"cold", func(m *Model, row int, cut float64) *Model {
		m.candCache = newCandLRU(candCacheBudgetBytes)
		return m
	}},
	{"below", func(m *Model, row int, cut float64) *Model {
		m.candCache = newCandLRU(candCacheBudgetBytes)
		m.candidatesUpTo(0, row, cut/2)
		return m
	}},
	{"above", func(m *Model, row int, cut float64) *Model {
		m.candCache = newCandLRU(candCacheBudgetBytes)
		m.candidatesUpTo(0, row, cut*2)
		return m
	}},
	{"complete", func(m *Model, row int, cut float64) *Model {
		m.candCache = newCandLRU(candCacheBudgetBytes)
		m.candCache.put(uint64(row), completeSet(m, row), buildWork{})
		return m
	}},
	{"fork", func(m *Model, row int, cut float64) *Model {
		m.candCache = newCandLRU(candCacheBudgetBytes)
		m.candidatesUpTo(0, row, cut*0.7)
		f := m.Fork()
		f.SetSalt(m.salt)
		f.SetTrialSalts(m.batchSalts)
		return f
	}},
	{"evicted", func(m *Model, row int, cut float64) *Model {
		// A one-byte-per-shard budget keeps only the newest set of a
		// shard: putting another key of the row's shard evicts the row.
		m.candCache = newCandLRU(candShardCount)
		m.candidatesUpTo(0, row, cut/2)
		key := uint64(row)
		other := key + 1
		for m.candCache.shardFor(other) != m.candCache.shardFor(key) {
			other++
		}
		m.candCache.put(other, candSet{}, buildWork{})
		if _, ok := m.candCache.cachedSet(key); ok {
			panic("evicted state: the row's set survived")
		}
		return m
	}},
}

// completeSets memoizes each (profile, row width, row)'s complete
// candidate set for the "complete" cache state; sets are read-only, so
// one may sit in several caches.
var completeSets = map[[3]any]candSet{}

func completeSet(m *Model, row int) candSet {
	k := [3]any{m.p.Name, m.geo.RowBits(), row}
	set, ok := completeSets[k]
	if !ok {
		set = m.buildCandidates(0, row, math.Inf(1))
		completeSets[k] = set
	}
	return set
}

// TestDisturbAnyMatchesDisturb is the existence walk's differential
// test: DisturbAny(ctx) must equal Disturb(ctx) > 0 for every profile,
// the 2048- and 8192-bit rows, temperatures on both sides of the
// cells' gate edges, two of three data patterns per temperature, salt 0 and salts 1..5 with
// and without a declared trial batch, and every cache state the walk
// can meet. The reference is Disturb on a separate model, so the two
// walks never share a cache; after a sample of the probes the model's
// cached set must still equal the brute-force oracle at its cover.
func TestDisturbAnyMatchesDisturb(t *testing.T) {
	temps := []float64{50, 52.5, 52.7, 57.3, 57.5, 67.7, 82.3, 90}
	patterns := []struct{ victim, agg string }{
		{"checkered", "checkered"},
		{"zeros", "ones"},
		{"random", "random"},
	}
	batch := []uint64{1, 2, 3, 4, 5}
	seen := map[bool]int{}
	for _, geo := range []dram.Geometry{tinyGeometry(), wideGeometry()} {
		for _, p := range Profiles() {
			m := newGeoModel(t, p, 71, geo)
			ref := newGeoModel(t, p, 71, geo)
			combo := 0
			for _, state := range anyCacheStates {
				for ti, tempC := range temps {
					for _, pi := range []int{ti % len(patterns), (ti + 1) % len(patterns)} {
						pat := patterns[pi]
						combo++
						salt := uint64(combo % 6) // 0..5
						batched := combo%4 < 2
						row := 20 + 3*pi
						victim := make([]uint64, geo.RowWords())
						agg := make([]uint64, geo.RowWords())
						fillPattern(victim, pat.victim, uint64(combo))
						fillPattern(agg, pat.agg, uint64(combo)+1)
						rowHC := ref.RowBaseHC(0, row)
						for _, f := range []float64{0.3, 0.7, 1.0, 1.3, 4} {
							led := mkLedger(int64(f*rowHC), 34.5, 16.5, tempC)
							ctx := dram.DisturbContext{Bank: 0, Row: row, Ledger: led, Data: victim, Geometry: geo, Up: agg, Down: agg}
							for _, mm := range []*Model{m, ref} {
								mm.SetSalt(salt)
								mm.SetTrialSalts(nil)
								if batched && salt != 0 {
									mm.SetTrialSalts(batch)
								}
							}
							rp := m.rowParamsFor(0, row)
							heff := m.EffectiveHammers(led, rp.tinf)
							probe := state.setup(m, row, walkCut(rp, heff, salt != 0))
							got := probe.DisturbAny(ctx)
							n, _ := ref.Disturb(ctx)
							if got != (n > 0) {
								t.Fatalf("mfr %s %d-bit row %d, %v °C, %s, salt %d batched %v, cache %s, %.2f×HC: DisturbAny %v, Disturb %d flips",
									p.Name, geo.RowBits(), row, tempC, pat.victim, salt, batched, state.name, f, got, n)
							}
							seen[got]++
							if set, ok := probe.candCache.cachedSet(uint64(row)); ok && combo%10 == 0 {
								checkSetMatchesOracle(t, probe, row, set.cover, set)
							}
							// The same model's full walk after the existence
							// walk agrees too.
							if n2, _ := probe.Disturb(ctx); n2 != n {
								t.Fatalf("mfr %s row %d cache %s: Disturb after DisturbAny gave %d flips, reference %d", p.Name, row, state.name, n2, n)
							}
						}
					}
				}
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("existence outcomes %v: the sweep must see both answers", seen)
	}
}

// TestDisturbAnyStopsEarly: on a cold row whose cut reaches far past
// its first flipping cell, the existence walk materializes a small
// fraction of the cells a full walk builds.
func TestDisturbAnyStopsEarly(t *testing.T) {
	for _, p := range Profiles() {
		anyM := newTinyModel(t, p, 73)
		full := newTinyModel(t, p, 73)
		victim := make([]uint64, anyM.geo.RowWords())
		agg := make([]uint64, anyM.geo.RowWords())
		fillPattern(victim, "checkered", 0)
		fillPattern(agg, "ones", 0)
		const row = 40
		led := mkLedger(int64(4*full.RowBaseHC(0, row)), 34.5, 16.5, 50)
		ctx := dram.DisturbContext{Bank: 0, Row: row, Ledger: led, Data: victim, Geometry: anyM.geo, Up: agg, Down: agg}
		if !anyM.DisturbAny(ctx) {
			t.Fatalf("mfr %s: no flip at 4× the row HCfirst; test vacuous", p.Name)
		}
		full.Disturb(ctx)
		a, f := anyM.candCache.stats().cells, full.candCache.stats().cells
		t.Logf("mfr %s: existence walk %d cells, full walk %d", p.Name, a, f)
		if 4*a > f {
			t.Fatalf("mfr %s: existence walk materialized %d cells, full walk %d; want at most a quarter", p.Name, a, f)
		}
	}
}
