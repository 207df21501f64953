package rowhammer

import "testing"

// narrowBeatTester is parallelTestTester's bench, whose beat
// (Chips × ChipWidth = 32 bits) is narrower than a 64-bit word.
func narrowBeatTester(t *testing.T) *Tester {
	t.Helper()
	tester := parallelTestTester(t, 1)
	if beat := tester.b.Geometry().BeatBits(); beat != 32 {
		t.Fatalf("beat = %d bits, want 32", beat)
	}
	return tester
}

// TestNarrowBeatZeroHammerReadsClean: on a geometry whose beat is
// narrower than 64 bits, a test that does not hammer reads back
// exactly the pattern it wrote — no flips in any observed row.
func TestNarrowBeatZeroHammerReadsClean(t *testing.T) {
	tester := narrowBeatTester(t)
	for _, pat := range AllPatterns {
		res, err := tester.Hammer(HammerConfig{VictimPhys: 40, Hammers: 0, Pattern: pat})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.TotalFlips(); n != 0 {
			t.Fatalf("%v: zero-hammer test reports %d flips (victim %d, V-2 %d, V+2 %d)",
				pat, n, res.Victim.Count(), res.SingleLo.Count(), res.SingleHi.Count())
		}
	}
}

// TestNarrowBeatFlipsAreStoredBitFlips: every flip a readback reports
// is a row bit below RowBits whose stored value differs from the
// pattern the module packed (column col's beat at bits col·beat…), and
// every such differing bit is reported.
func TestNarrowBeatFlipsAreStoredBitFlips(t *testing.T) {
	tester := narrowBeatTester(t)
	g := tester.b.Geometry()
	beat := g.BeatBits()
	const victim = 40
	total := 0
	for _, pat := range AllPatterns {
		res, err := tester.Hammer(HammerConfig{VictimPhys: victim, Hammers: 1_000_000, Pattern: pat})
		if err != nil {
			t.Fatal(err)
		}
		for _, obs := range []struct {
			phys  int
			flips FlipSet
		}{{victim, res.Victim}, {victim - 2, res.SingleLo}, {victim + 2, res.SingleHi}} {
			want := make([]uint64, g.ColumnsPerRow)
			tester.fillRow(want, 0, obs.phys, obs.phys-victim, pat)
			stored := tester.b.Module.PeekRow(0, obs.phys)
			var differ []int
			for bit := 0; bit < g.RowBits(); bit++ {
				col, off := bit/beat, bit%beat
				if (stored[bit/64]>>(bit%64))&1 != (want[col]>>off)&1 {
					differ = append(differ, bit)
				}
			}
			if len(differ) != obs.flips.Count() {
				t.Fatalf("%v row %d: %d flips reported, %d stored bits differ from the pattern",
					pat, obs.phys, obs.flips.Count(), len(differ))
			}
			for i, bit := range obs.flips.Bits {
				if bit >= g.RowBits() || bit != differ[i] {
					t.Fatalf("%v row %d: flip %d at bit %d, stored difference at bit %d (RowBits %d)",
						pat, obs.phys, i, bit, differ[i], g.RowBits())
				}
			}
			total += len(differ)
		}
	}
	if total == 0 {
		t.Fatal("no flips at 1M hammers; the test is vacuous")
	}
}

// TestNarrowBeatHCFirstSearches: on a narrow-beat geometry the HCfirst
// search finds a threshold above its floor, not a flip at every probe.
func TestNarrowBeatHCFirstSearches(t *testing.T) {
	tester := narrowBeatTester(t)
	res, err := tester.HCFirst(HCFirstConfig{VictimPhys: 40, Pattern: PatCheckered, MaxHammers: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no HCfirst up to 2M hammers; the test is vacuous")
	}
	if res.HCfirst <= 2*HCFirstAccuracy {
		t.Fatalf("HCfirst = %d, the search floor: every probe flipped", res.HCfirst)
	}
	t.Logf("HCfirst = %d after %d probes", res.HCfirst, res.Probes)
}
