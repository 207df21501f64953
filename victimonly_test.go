package rowhammer

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"rowhammer/internal/dram"
)

// victimOnlyPatterns are the data patterns the victim-only tests cover:
// two constant-word patterns and the per-column random one.
var victimOnlyPatterns = []PatternKind{PatCheckered, PatRowStripe, PatRandom}

// fullReadBER is BER built on the public HammerInto, which reads the
// victim and both single-sided victims after every repetition: the
// reference the victim-only BER must reproduce.
func fullReadBER(t *Tester, cfg HammerConfig, reps int) (HammerResult, error) {
	var worst HammerResult
	for rep := 0; rep < reps; rep++ {
		c := cfg
		c.Trial = uint64(rep) + 1
		var cur HammerResult
		if err := t.HammerInto(c, &cur); err != nil {
			return worst, err
		}
		if rep == 0 || cur.Victim.Count() > worst.Victim.Count() {
			worst = cur
		}
	}
	return worst, nil
}

// fullReadSurvey is SurveyPatterns' per-pattern flip totals built on
// HammerInto.
func fullReadSurvey(t *Tester, bank int, victims []int, hammers int64) ([dram.NumPatterns]PatternFlips, error) {
	var totals [dram.NumPatterns]PatternFlips
	for i, pat := range AllPatterns {
		totals[i].Pattern = pat
		for _, v := range victims {
			var res HammerResult
			if err := t.HammerInto(HammerConfig{Bank: bank, VictimPhys: v, Hammers: hammers, Pattern: pat, Trial: 1}, &res); err != nil {
				return totals, err
			}
			totals[i].Flips += res.Victim.Count()
		}
	}
	return totals, nil
}

// fullReadSweep is the serial TemperatureSweep built on HammerInto.
func fullReadSweep(t *Tester, cfg TempSweepConfig) (*TempSweepResult, error) {
	res := &TempSweepResult{Temps: cfg.Temps, Rows: cfg.Victims, Cells: make(map[CellID]uint32)}
	for ti, temp := range cfg.Temps {
		if err := t.b.SetTemperature(temp); err != nil {
			return nil, err
		}
		perRow := make([]HammerResult, len(cfg.Victims))
		for ri, v := range cfg.Victims {
			var worst HammerResult
			for rep := 0; rep < cfg.Repetitions; rep++ {
				var cur HammerResult
				if err := t.HammerInto(HammerConfig{
					Bank: cfg.Bank, VictimPhys: v, Hammers: cfg.Hammers, Pattern: cfg.Pattern, Trial: uint64(rep) + 1,
				}, &cur); err != nil {
					return nil, err
				}
				for _, bit := range cur.Victim.Bits {
					res.Cells[CellID{Row: v, Bit: bit}] |= 1 << uint(ti)
				}
				if rep == 0 || cur.Victim.Count() > worst.Victim.Count() {
					worst = cur
				}
			}
			perRow[ri] = worst
		}
		res.Flips = append(res.Flips, perRow)
	}
	return res, t.b.SetTemperature(50)
}

// sameResult compares two test results (an empty flip set equals a nil
// one). singles selects whether the single-sided victims must equal
// want's or be empty.
func sameResult(got, want HammerResult, singles bool) error {
	if !slices.Equal(got.Victim.Bits, want.Victim.Bits) || got.DurationP != want.DurationP {
		return fmt.Errorf("victim %v in %d ps, full read %v in %d ps", got.Victim.Bits, got.DurationP, want.Victim.Bits, want.DurationP)
	}
	if !singles {
		if got.SingleLo.Count()+got.SingleHi.Count() != 0 {
			return fmt.Errorf("victim-only result read single-sided victims: %v %v", got.SingleLo.Bits, got.SingleHi.Bits)
		}
		return nil
	}
	if !slices.Equal(got.SingleLo.Bits, want.SingleLo.Bits) || !slices.Equal(got.SingleHi.Bits, want.SingleHi.Bits) {
		return fmt.Errorf("single-sided victims %v %v, full read %v %v", got.SingleLo.Bits, got.SingleHi.Bits, want.SingleLo.Bits, want.SingleHi.Bits)
	}
	return nil
}

// sameSweep compares a sweep with the full-read sweep: the same grid,
// victims, per-point results and cell masks. singles is as for
// sameResult.
func sameSweep(got, want *TempSweepResult, singles bool) error {
	if !slices.Equal(got.Temps, want.Temps) || !slices.Equal(got.Rows, want.Rows) || len(got.Flips) != len(want.Flips) {
		return fmt.Errorf("sweep shape differs from the full-read sweep")
	}
	for ti := range want.Flips {
		for ri := range want.Flips[ti] {
			if err := sameResult(got.Flips[ti][ri], want.Flips[ti][ri], singles); err != nil {
				return fmt.Errorf("temp %v victim %d: %v", got.Temps[ti], got.Rows[ri], err)
			}
		}
	}
	if len(got.Cells) != len(want.Cells) {
		return fmt.Errorf("%d cells, full-read sweep %d", len(got.Cells), len(want.Cells))
	}
	for id, mask := range want.Cells {
		if got.Cells[id] != mask {
			return fmt.Errorf("cell %+v mask %#x, full-read sweep %#x", id, got.Cells[id], mask)
		}
	}
	return nil
}

// sameFollowOn hammers one more victim on both testers and requires
// identical full readbacks: skipping reads left no state behind that a
// later measurement observes.
func sameFollowOn(t *testing.T, fast, ref *Tester, pat PatternKind) {
	t.Helper()
	cfg := HammerConfig{Bank: 0, VictimPhys: 102, Hammers: 300_000, Pattern: pat, Trial: 2}
	got, err := fast.Hammer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Hammer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(got, want, true); err != nil {
		t.Fatalf("follow-on hammer: %v", err)
	}
}

// TestSurveyPatternsVictimOnlyMatchesFullReads: the victim-only survey
// tallies exactly the victim flips of full readbacks, for all four
// profiles, twice in a row on one bench.
func TestSurveyPatternsVictimOnlyMatchesFullReads(t *testing.T) {
	victims := []int{60, 100, 300}
	flips := 0
	for _, prof := range []string{"A", "B", "C", "D"} {
		fast := NewTester(newBenchFor(t, prof, 31))
		ref := NewTester(newBenchFor(t, prof, 31))
		for round := 0; round < 2; round++ {
			got, err := fast.SurveyPatterns(context.Background(), 0, victims, 200_000)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fullReadSurvey(ref, 0, victims, 200_000)
			if err != nil {
				t.Fatal(err)
			}
			if got.Totals != want {
				t.Fatalf("profile %s round %d: survey totals %v, full reads %v", prof, round, got.Totals, want)
			}
			flips += got.BestFlips
		}
		sameFollowOn(t, fast, ref, PatCheckered)
	}
	if flips == 0 {
		t.Fatal("no survey saw a flip; test vacuous")
	}
}

// TestBERVictimOnlyMatchesFullReads: BER's victim-only repetitions
// pick the same worst repetition, with the same victim flips and
// duration, as full readbacks, across profiles, patterns and
// successive calls on one bench.
func TestBERVictimOnlyMatchesFullReads(t *testing.T) {
	flips := 0
	for _, prof := range []string{"A", "B", "C", "D"} {
		fast := NewTester(newBenchFor(t, prof, 33))
		ref := NewTester(newBenchFor(t, prof, 33))
		for _, pat := range victimOnlyPatterns {
			for _, victim := range []int{100, 101} {
				cfg := HammerConfig{Bank: 0, VictimPhys: victim, Hammers: 250_000, Pattern: pat}
				got, err := fast.BER(cfg, 3)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fullReadBER(ref, cfg, 3)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResult(got, want, false); err != nil {
					t.Fatalf("profile %s %v victim %d: %v", prof, pat, victim, err)
				}
				flips += got.Victim.Count()
			}
		}
		sameFollowOn(t, fast, ref, PatRandom)
	}
	if flips == 0 {
		t.Fatal("no BER test saw a flip; test vacuous")
	}
}

// TestTemperatureSweepVictimOnlyMatchesFullReads: a sweep without
// Singles — on the tester's own bench (one worker) and on bench clones
// (two) — records the same victim results and cells as a full-read
// sweep; with Singles it also carries the same single-sided results.
func TestTemperatureSweepVictimOnlyMatchesFullReads(t *testing.T) {
	cells := 0
	for _, prof := range []string{"A", "B", "C", "D"} {
		for _, workers := range []int{1, 2} {
			for _, singles := range []bool{false, true} {
				fast := NewTester(newBenchFor(t, prof, 35))
				fast.SetWorkers(workers)
				ref := NewTester(newBenchFor(t, prof, 35))
				for _, pat := range victimOnlyPatterns {
					cfg := TempSweepConfig{
						Victims: []int{100, 201}, Temps: []float64{50, 70, 90},
						Hammers: 250_000, Pattern: pat, Repetitions: 2, Singles: singles,
					}
					got, err := fast.TemperatureSweep(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fullReadSweep(ref, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameSweep(got, want, singles); err != nil {
						t.Fatalf("profile %s workers %d singles %v %v: %v", prof, workers, singles, pat, err)
					}
					cells += len(got.Cells)
				}
				sameFollowOn(t, fast, ref, PatCheckered)
			}
		}
	}
	if cells == 0 {
		t.Fatal("no sweep saw a flipped cell; test vacuous")
	}
}

// TestVictimOnlyMeasurementsSenseOneRow: every test of a victim-only
// measurement — a BER repetition, a survey probe, a sweep repetition
// without Singles — makes at most one Disturb call past the fault
// model's early out: the victim's readback. The same tests read in
// full make more.
func TestVictimOnlyMeasurementsSenseOneRow(t *testing.T) {
	cfg := HammerConfig{Bank: 0, VictimPhys: 100, Hammers: 400_000, Pattern: PatCheckered}
	victims := []int{60, 100, 300}
	sweep := TempSweepConfig{Victims: victims, Temps: []float64{50, 90}, Hammers: 400_000, Pattern: PatCheckered, Repetitions: 2}
	cases := []struct {
		name  string
		tests int
		fast  func(*Tester) (flips int, err error)
		full  func(*Tester) error
	}{
		{"BER", 5, func(tr *Tester) (int, error) {
			res, err := tr.BER(cfg, 5)
			return res.Victim.Count(), err
		}, func(tr *Tester) error {
			_, err := fullReadBER(tr, cfg, 5)
			return err
		}},
		{"SurveyPatterns", len(AllPatterns) * len(victims), func(tr *Tester) (int, error) {
			s, err := tr.SurveyPatterns(context.Background(), 0, victims, 400_000)
			return s.BestFlips, err
		}, func(tr *Tester) error {
			_, err := fullReadSurvey(tr, 0, victims, 400_000)
			return err
		}},
		{"TemperatureSweep", len(sweep.Temps) * len(victims) * sweep.Repetitions, func(tr *Tester) (int, error) {
			res, err := tr.TemperatureSweep(context.Background(), sweep)
			if err != nil {
				return 0, err
			}
			return len(res.Cells), nil
		}, func(tr *Tester) error {
			_, err := fullReadSweep(tr, sweep)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			counted := func() (*Tester, *earlyOutCounter) {
				b := newBenchFor(t, "A", 21)
				counter := &earlyOutCounter{inner: b.Model}
				tr := NewTester(withDisturber(t, b, counter))
				tr.SetWorkers(1) // one worker runs on b's module
				return tr, counter
			}
			tr, counter := counted()
			flips, err := c.fast(tr)
			if err != nil {
				t.Fatal(err)
			}
			if flips == 0 || counter.full == 0 {
				t.Fatalf("saw %d flips with %d full Disturb calls; test vacuous", flips, counter.full)
			}
			if counter.full > c.tests {
				t.Fatalf("%d Disturb calls past the early out over %d tests; want at most one per test", counter.full, c.tests)
			}
			ref, refCounter := counted()
			if err := c.full(ref); err != nil {
				t.Fatal(err)
			}
			if refCounter.full <= counter.full {
				t.Fatalf("full readbacks made %d Disturb calls past the early out, victim-only %d; want more", refCounter.full, counter.full)
			}
		})
	}
}

// TestTemperatureSweepReplaysLaterPoints: on a grid of MaxSweepTemps
// points with Singles, every test reads three rows (V, V−2, V+2), so one
// victim leaves MaxSweepTemps × 3 = 96 replay entries, which must fit in
// the fault model's replay cache until the victim's last point: each
// row read walks the kernel once per victim, and every later read of it
// past the early out replays.
func TestTemperatureSweepReplaysLaterPoints(t *testing.T) {
	b := newBenchFor(t, "A", 21)
	counter := &earlyOutCounter{inner: b.Model}
	tr := NewTester(withDisturber(t, b, counter))
	tr.SetWorkers(1) // the sweep runs on b's module
	temps := make([]float64, MaxSweepTemps)
	for i := range temps {
		temps[i] = 50 + float64(i)
	}
	cfg := TempSweepConfig{
		Victims: []int{100, 201}, Temps: temps, Hammers: 400_000,
		Pattern: PatCheckered, Repetitions: 2, Singles: true,
	}
	if _, err := tr.TemperatureSweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	hits := b.Model.KernelStats().ReplayHits
	if walks, most := counter.full-hits, 3*len(cfg.Victims); walks > most || hits == 0 {
		t.Fatalf("%d reads past the early out, %d replayed: %d walks, want at most %d", counter.full, hits, walks, most)
	}
}
