package faultmodel

import (
	"fmt"
	"slices"
	"testing"

	"rowhammer/internal/dram"
)

// batchTemps straddles the cells' gate edges, which sit 2.4 °C beyond
// a vulnerable range's 5 °C-grid bounds and its gap point (x2.4, x2.6,
// x7.4 and x7.6 °C), and includes the grid ends.
var batchTemps = []float64{50, 52.39, 52.41, 57.59, 57.61, 62.4, 67.6, 72.5, 85, 90}

// disturbCase is one Disturb input: a row's stored words and its
// neighbours', with a ledger built by mkLedger.
type disturbCase struct {
	row       int
	data, agg []uint64
}

func (c disturbCase) ctx(geo dram.Geometry, led *dram.RowLedger) dram.DisturbContext {
	return dram.DisturbContext{Bank: 0, Row: c.row, Ledger: led, Data: c.data, Geometry: geo, Up: c.agg, Down: c.agg}
}

// sameDisturb fails unless two Disturb results agree bit for bit,
// including whether the early out answered (nil mask).
func sameDisturb(t *testing.T, what string, n int, mask []uint64, wn int, wmask []uint64) {
	t.Helper()
	if n != wn || (mask == nil) != (wmask == nil) || !slices.Equal(mask, wmask) {
		t.Fatalf("%s: batched %d flips (mask nil %v), unbatched %d (mask nil %v), masks equal %v",
			what, n, mask == nil, wn, wmask == nil, slices.Equal(mask, wmask))
	}
}

// TestTempBatchMatchesUnbatched: after one Disturb on a model with a
// declared temperature batch, Disturb at every declared temperature and
// every salt equals Disturb on a separate model without one, bit for
// bit, and is answered from the replay cache. It covers every profile,
// 2048- and 8192-bit rows, temperatures on both sides of the gate
// edges, hammer counts around the early out and the row HCfirst, salt
// 0, salts 1–5 with and without a declared trial batch, and models
// whose kernel and replay caches start cold or warm.
func TestTempBatchMatchesUnbatched(t *testing.T) {
	saltCases := []struct {
		name  string
		trial []uint64 // declared trial batch
		salts []uint64 // salts Disturb runs under
	}{
		{"salt0", nil, []uint64{0}},
		{"trial1-5", []uint64{1, 2, 3, 4, 5}, []uint64{1, 2, 3, 4, 5}},
		{"salts1-5", nil, []uint64{1, 2, 3, 4, 5}},
	}
	flips, walks := 0, 0
	for _, geo := range []dram.Geometry{tinyGeometry(), wideGeometry()} {
		for _, p := range Profiles() {
			for _, sc := range saltCases {
				for _, warm := range []bool{false, true} {
					batched := newGeoModel(t, p, 83, geo)
					ref := newGeoModel(t, p, 83, geo)
					for ri, row := range []int{6, 131} {
						c := disturbCase{row: row, data: make([]uint64, geo.RowWords()), agg: make([]uint64, geo.RowWords())}
						fillPattern(c.data, "random", uint64(row))
						fillPattern(c.agg, "random", uint64(row)+7)
						rowHC := batched.RowBaseHC(0, row)
						for _, f := range []float64{0.23, 1, 3} {
							hammers := int64(f * rowHC)
							if warm {
								// A smaller walk first: the batched walk extends the
								// cached set and finds other inputs in the replay cache.
								for _, m := range []*Model{batched, ref} {
									m.SetSalt(sc.salts[0])
									m.Disturb(c.ctx(geo, mkLedger(hammers/2, 34.5, 16.5, 60)))
								}
							}
							batched.SetTrialSalts(sc.trial)
							ref.SetTrialSalts(sc.trial)
							batched.SetTempBatch(batchTemps)
							// Start at a different declared temperature per row.
							k := (ri + len(batchTemps)/2) % len(batchTemps)
							order := append(slices.Clone(batchTemps[k:]), batchTemps[:k]...)
							// One walk per trial batch: the first input past the
							// early out walks, every later one replays.
							walked := false
							for _, salt := range sc.salts {
								if sc.trial == nil {
									walked = false
								}
								batched.SetSalt(salt)
								ref.SetSalt(salt)
								for _, tempC := range order {
									what := fmt.Sprintf("%s %d-bit %s warm %v row %d hammers %d at %v °C salt %d",
										p.Name, geo.RowBits(), sc.name, warm, row, hammers, tempC, salt)
									hits := batched.KernelStats().ReplayHits
									n, mask := batched.Disturb(c.ctx(geo, mkLedger(hammers, 34.5, 16.5, tempC)))
									replayed := batched.KernelStats().ReplayHits > hits
									mask = slices.Clone(mask)
									wn, wmask := ref.Disturb(c.ctx(geo, mkLedger(hammers, 34.5, 16.5, tempC)))
									sameDisturb(t, what, n, mask, wn, wmask)
									if mask != nil && !replayed {
										if walked {
											t.Fatalf("%s: walked again after the batched walk", what)
										}
										walked = true
										walks++
									}
									flips += n
								}
							}
							batched.SetTempBatch(nil)
						}
					}
				}
			}
		}
	}
	if flips == 0 || walks == 0 {
		t.Fatalf("%d flips over %d batched walks; test vacuous", flips, walks)
	}
}

// TestTempBatchOnlyUniformDeclaredLedgers: a walk caches other
// temperatures only for a ledger recorded entirely at one declared
// temperature. A ledger whose two distance classes were recorded at
// two declared temperatures, one whose distance-1 class was recorded
// at two, and one recorded at an undeclared temperature each leave
// exactly their own replay entry, and still equal an unbatched model.
func TestTempBatchOnlyUniformDeclaredLedgers(t *testing.T) {
	geo := tinyGeometry()
	batched := newGeoModel(t, MfrA(), 89, geo)
	ref := newGeoModel(t, MfrA(), 89, geo)
	const row = 40
	c := disturbCase{row: row, data: make([]uint64, geo.RowWords()), agg: make([]uint64, geo.RowWords())}
	fillPattern(c.data, "random", 1)
	fillPattern(c.agg, "random", 2)

	hammers := int64(2*batched.RowBaseHC(0, row)) / 4 * 4
	mixed := mkLedger(hammers, 34.5, 16.5, 50)
	mixed.Dist[1] = mkLedger(hammers/4, 34.5, 16.5, 90).Dist[0]
	between := mkLedger(hammers, 34.5, 16.5, 50)
	between.Dist[0].SumTempMilliC = mkLedger(hammers/4, 34.5, 16.5, 50).Dist[0].SumTempMilliC +
		mkLedger(hammers/4*3, 34.5, 16.5, 70).Dist[0].SumTempMilliC
	for _, tc := range []struct {
		name string
		led  *dram.RowLedger
	}{
		{"two declared temperatures", mixed},
		{"two declared temperatures in one class", between},
		{"undeclared temperature", mkLedger(hammers, 34.5, 16.5, 55)},
	} {
		batched.replay = newReplayCache()
		batched.SetTempBatch([]float64{50, 70, 90})
		led := *tc.led
		n, mask := batched.Disturb(c.ctx(geo, &led))
		mask = slices.Clone(mask)
		ref.replay = newReplayCache()
		wn, wmask := ref.Disturb(c.ctx(geo, tc.led))
		sameDisturb(t, tc.name, n, mask, wn, wmask)
		if n == 0 {
			t.Fatalf("%s: no flips; test vacuous", tc.name)
		}
		if got := len(batched.replay.entries); got != 1 {
			t.Fatalf("%s: walk left %d replay entries, want its own alone", tc.name, got)
		}
		if _, ok := batched.replay.entries[replayKey{bank: 0, row: row, led: *tc.led}]; !ok {
			t.Fatalf("%s: the walk's own entry is missing", tc.name)
		}
	}
}
