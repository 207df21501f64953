package rowhammer

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/softmc"
)

// patternWrite is one writePattern call of the arena tests.
type patternWrite struct {
	bank, victim int
	pat          PatternKind
}

// arenaWrites repeats, changes the pattern, the victim and the bank,
// and covers victims whose V±8 window leaves the bank at either end.
func arenaWrites(rows int) []patternWrite {
	return []patternWrite{
		{0, 100, PatRandom}, {0, 100, PatRandom},
		{0, 100, PatCheckered}, {0, 100, PatCheckered},
		{0, 101, PatCheckered}, {1, 101, PatCheckered},
		{1, 101, PatRandom}, {0, 101, PatRandom},
		{0, 0, PatRandom}, {0, 0, PatRandom}, {0, 3, PatRandom},
		{0, rows - 1, PatRandom}, {0, rows - 1, PatRandom}, {0, rows - 2, PatColStripeInv},
		{0, 100, PatRandom},
	}
}

// TestArenaWritePatternMatchesFreshTester: a Tester that reuses its
// row arena and its pattern-write program across writes issues the
// same command trace, leaves the same stored words over V±8 and
// measures the same flips as a fresh Tester (whose arena is empty and
// whose program is assembled afresh) on an identical bench — across
// repeated, re-patterned, moved and re-banked writes, with hammer
// tests, readbacks and compare-reads assembled in between, and after
// UseMapping changes the logical rows the held program activates.
func TestArenaWritePatternMatchesFreshTester(t *testing.T) {
	memoBench, freshBench := newBenchFor(t, "A", 41), newBenchFor(t, "A", 41)
	memoBench.Exec.SetTrace(true)
	freshBench.Exec.SetTrace(true)
	memo := NewTester(memoBench)
	freshWith := func(m dram.RemapScheme) *Tester {
		fresh := NewTester(freshBench)
		fresh.UseMapping(m)
		return fresh
	}
	rows := memoBench.Geometry().RowsPerBank
	flips := 0
	for mi, m := range []dram.RemapScheme{memoBench.Module.Remap(), dram.MirrorRemap{}, dram.DefaultScramble()} {
		memo.UseMapping(m)
		for i, w := range arenaWrites(rows) {
			fresh := freshWith(m)
			if err := memo.InitPattern(w.bank, w.victim, w.pat); err != nil {
				t.Fatal(err)
			}
			if err := fresh.InitPattern(w.bank, w.victim, w.pat); err != nil {
				t.Fatal(err)
			}
			if len(memo.res.Trace) == 0 || !reflect.DeepEqual(memo.res.Trace, fresh.res.Trace) {
				t.Fatalf("mapping %d write %d %+v: trace of %d commands, fresh Tester %d (or they differ)",
					mi, i, w, len(memo.res.Trace), len(fresh.res.Trace))
			}
			for phys := max(w.victim-patternRadius, 0); phys <= min(w.victim+patternRadius, rows-1); phys++ {
				got, want := memoBench.Module.PeekRow(w.bank, phys), freshBench.Module.PeekRow(w.bank, phys)
				if got == nil || !slices.Equal(got, want) {
					t.Fatalf("mapping %d write %d %+v: row %d holds %#x, fresh Tester wrote %#x", mi, i, w, phys, got, want)
				}
			}
			if memo.validateVictim(w.bank, w.victim) != nil {
				continue
			}
			// A hammer test rewrites the same key with the held program,
			// then reads back and compare-reads through the short builder.
			cfg := HammerConfig{Bank: w.bank, VictimPhys: w.victim, Hammers: 400_000, Pattern: w.pat, Trial: 1}
			got, err := memo.Hammer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshWith(m).Hammer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mapping %d write %d %+v: hammer test %+v, fresh Tester %+v", mi, i, w, got, want)
			}
			gotF, err := memo.victimFlipped(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantF, err := freshWith(m).victimFlipped(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if gotF != wantF {
				t.Fatalf("mapping %d write %d %+v: compare-read %v, fresh Tester %v", mi, i, w, gotF, wantF)
			}
			flips += got.TotalFlips()
		}
	}
	if flips == 0 {
		t.Fatal("no hammer test flipped a bit; test vacuous")
	}
}

// hashedFlips is the readback before the row arena: read a physical
// row and diff every column against its pattern word, hashed afresh.
func hashedFlips(t *Tester, bank, phys, victim int, pat PatternKind) ([]int, error) {
	g := t.b.Geometry()
	tm := t.b.Timing()
	bld := newBuilder(tm)
	bld.Act(bank, t.logical(phys)).Wait(tm.TRCD)
	bld.RdRow(bank, g.ColumnsPerRow, tm.TCCD)
	bld.Wait(tm.TRAS).Pre(bank).Wait(tm.TRP)
	var res softmc.Result
	if err := t.b.Exec.RunInto(bld.Program(), &res); err != nil {
		return nil, err
	}
	var flips []int
	for col, got := range res.Reads {
		diff := got ^ pat.FillWord(t.patternSeed, bank, phys, phys-victim, col)
		for diff != 0 {
			flips = append(flips, col*64+bits.TrailingZeros64(diff))
			diff &= diff - 1
		}
	}
	return flips, nil
}

// TestArenaRandomReadbackMatchesHashed: readbacks whose expected words
// come from the row arena equal readbacks against freshly hashed
// pattern words — after a hammer test (victim and single-sided
// victims), for rows of the last write's window, for a victim or a
// pattern the arena does not hold (a key miss), for rows outside the
// window, and next to either end of the bank, where writePattern skips
// rows.
func TestArenaRandomReadbackMatchesHashed(t *testing.T) {
	arenaBench, refBench := newBenchFor(t, "B", 43), newBenchFor(t, "B", 43)
	arena, ref := NewTester(arenaBench), NewTester(refBench)
	rows := arenaBench.Geometry().RowsPerBank
	type readback struct{ phys, victim int }
	cases := []struct {
		victim int
		reads  []readback
	}{
		{100, []readback{{99, 100}, {108, 100}, {92, 100}, {103, 101}, {110, 100}, {100, 104}}},
		{1, []readback{{0, 1}, {9, 1}, {0, 0}, {2, 0}}},
		{rows - 2, []readback{{rows - 1, rows - 2}, {rows - 10, rows - 2}, {rows - 1, rows - 1}}},
	}
	flips := 0
	for _, c := range cases {
		cfg := HammerConfig{Bank: 0, VictimPhys: c.victim, Hammers: 400_000, Pattern: PatRandom, Trial: 1}
		got, err := arena.Hammer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.hammerVictim(cfg); err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			got  []int
			phys int
		}{{got.Victim.Bits, c.victim}, {got.SingleLo.Bits, c.victim - 2}, {got.SingleHi.Bits, c.victim + 2}} {
			if r.phys < 0 || r.phys >= rows {
				if len(r.got) != 0 {
					t.Fatalf("victim %d: row %d outside the bank read %v", c.victim, r.phys, r.got)
				}
				continue
			}
			want, err := hashedFlips(ref, 0, r.phys, c.victim, PatRandom)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(r.got, want) {
				t.Fatalf("victim %d: row %d read %v, hashed readback %v", c.victim, r.phys, r.got, want)
			}
			flips += len(want)
		}
		ref.b.Model.SetSalt(0) // as hammerInto does after its reads
		for _, pat := range []PatternKind{PatRandom, PatCheckered} {
			for _, r := range c.reads {
				name := fmt.Sprintf("victim %d %v: ReadFlips(row %d, victim %d)", c.victim, pat, r.phys, r.victim)
				got, err := arena.ReadFlips(0, r.phys, r.victim, pat)
				if err != nil {
					t.Fatal(err)
				}
				want, err := hashedFlips(ref, 0, r.phys, r.victim, pat)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Bits, want) {
					t.Fatalf("%s = %v, hashed readback %v", name, got.Bits, want)
				}
			}
		}
	}
	if flips == 0 {
		t.Fatal("no hammer test flipped a bit; test vacuous")
	}
}

// TestInitPatternRejectsOutOfRange: InitPattern rejects a bank or a
// victim outside the module instead of writing nothing, and accepts a
// victim at either end of the bank, writing the rows of its V±8 window
// that exist.
func TestInitPatternRejectsOutOfRange(t *testing.T) {
	b := newBenchFor(t, "A", 45)
	tr := NewTester(b)
	g := b.Geometry()
	for _, c := range []struct{ bank, victim int }{
		{0, -20}, {0, -1}, {0, g.RowsPerBank}, {0, g.RowsPerBank + 20}, {-1, 100}, {g.Banks, 100},
	} {
		if err := tr.InitPattern(c.bank, c.victim, PatRandom); err == nil {
			t.Fatalf("InitPattern(bank %d, victim %d) = nil, want an error", c.bank, c.victim)
		}
	}
	for _, victim := range []int{0, g.RowsPerBank - 1} {
		if err := tr.InitPattern(0, victim, PatRandom); err != nil {
			t.Fatalf("InitPattern(0, %d): %v", victim, err)
		}
		for phys := max(victim-patternRadius, 0); phys <= min(victim+patternRadius, g.RowsPerBank-1); phys++ {
			want := make([]uint64, g.ColumnsPerRow)
			tr.fillRow(want, 0, phys, phys-victim, PatRandom)
			if got := b.Module.PeekRow(0, phys); !slices.Equal(got, want) {
				t.Fatalf("victim %d: row %d holds %#x, want the pattern %#x", victim, phys, got, want)
			}
		}
	}
}
