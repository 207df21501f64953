package rowhammer

import (
	"context"
	"reflect"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/faultmodel"
	"rowhammer/internal/softmc"
)

// optionsTester builds a bench with every module option on — TRR,
// on-die ECC (64-bit beats) and retention — held at 75 °C, so the
// worker-scoped clones must reset all of that state between units.
func optionsTester(t *testing.T, workers int) *Tester {
	t.Helper()
	trr := dram.DefaultTRRConfig()
	ret := dram.DefaultRetentionConfig()
	b, err := NewBench(BenchConfig{
		Profile: faultmodel.MfrA(),
		Seed:    0x5e7,
		Geometry: Geometry{
			Banks: 1, RowsPerBank: 256, SubarrayRows: 64,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 16,
		},
		TRR:       &trr,
		OnDieECC:  true,
		Retention: &ret,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetTemperature(75); err != nil {
		t.Fatal(err)
	}
	tester := NewTester(b)
	tester.SetWorkers(workers)
	return tester
}

var (
	optionsRows  = []int{8, 9, 10, 20, 33, 40, 70, 100}
	optionsHC    = HCFirstConfig{Pattern: PatCheckered, MaxHammers: 512_000}
	optionsSweep = TempSweepConfig{
		Victims:     []int{10, 21, 40},
		Temps:       []float64{50, 70, 90},
		Hammers:     150_000,
		Pattern:     PatCheckered,
		Repetitions: 2,
	}
)

// TestResetClonesMatchFreshClones: with TRR, on-die ECC and retention
// on, the parallel cores on two workers — each worker resetting one
// clone before every unit — produce exactly what a fresh clone per unit
// produces, and what the serial path measures.
func TestResetClonesMatchFreshClones(t *testing.T) {
	ctx := context.Background()

	ref := optionsTester(t, 1)
	var fresh []RowHC
	for _, row := range optionsRows {
		sub, err := ref.cloneAt(ref.b.Chamber)
		if err != nil {
			t.Fatal(err)
		}
		c := optionsHC
		c.VictimPhys = row
		res, err := sub.HCFirstMin(c, 2)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, RowHC{Row: row, HCfirst: res.HCfirst, Found: res.Found})
	}
	if len(VulnerableHCs(fresh)) == 0 {
		t.Fatal("no row found an HCfirst; test vacuous")
	}
	for _, workers := range []int{1, 2, len(optionsRows)} {
		got, err := optionsTester(t, workers).RowHCFirstProfile(ctx, 0, optionsRows, optionsHC, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("workers=%d profile differs from fresh clones:\ngot:   %+v\nfresh: %+v", workers, got, fresh)
		}
	}

	serial, err := optionsTester(t, 1).TemperatureSweep(ctx, optionsSweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Cells) == 0 {
		t.Fatal("sweep observed no flips; test vacuous")
	}
	units := len(optionsSweep.Temps) * len(optionsSweep.Victims)
	for _, workers := range []int{2, units} {
		got, err := optionsTester(t, workers).TemperatureSweep(ctx, optionsSweep)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d sweep differs from serial", workers)
		}
	}
}

// TestParallelCoresCloneBudget: each call of a parallel core builds at
// most one bench clone per pool worker, however many units it runs.
func TestParallelCoresCloneBudget(t *testing.T) {
	ctx := context.Background()
	units := len(optionsSweep.Temps) * len(optionsSweep.Victims)
	for _, workers := range []int{2, 3} {
		tester := optionsTester(t, workers)
		before := tester.clones.Load()
		if _, err := tester.RowHCFirstProfile(ctx, 0, optionsRows, optionsHC, 1); err != nil {
			t.Fatal(err)
		}
		if n := tester.clones.Load() - before; n < 1 || n > int64(tester.effectiveWorkers()) {
			t.Fatalf("workers=%d: profile of %d rows built %d clones, want 1..%d",
				workers, len(optionsRows), n, tester.effectiveWorkers())
		}
		before = tester.clones.Load()
		if _, err := tester.TemperatureSweep(ctx, optionsSweep); err != nil {
			t.Fatal(err)
		}
		if n := tester.clones.Load() - before; n < 1 || n > int64(tester.effectiveWorkers()) {
			t.Fatalf("workers=%d: sweep of %d units built %d clones, want 1..%d",
				workers, units, n, tester.effectiveWorkers())
		}
	}
}

// TestBenchResetAtEqualsCloneAt: a clone left in any state — as a unit
// that panicked midway might leave it: chamber moved, a row open, a
// trial batch declared, tracing on, time advanced — is reset to a bench
// that measures exactly as the one cloneAt builds from the same chamber
// snapshot.
func TestBenchResetAtEqualsCloneAt(t *testing.T) {
	src := optionsTester(t, 1)
	snap := src.b.Chamber.Clone()
	used, err := src.cloneAt(src.b.settled)
	if err != nil {
		t.Fatal(err)
	}
	if err := used.b.SetTemperature(90); err != nil {
		t.Fatal(err)
	}
	if _, err := used.Hammer(HammerConfig{Bank: 0, VictimPhys: 40, Hammers: 300_000, Pattern: PatRowStripe, Trial: 3}); err != nil {
		t.Fatal(err)
	}
	used.declareTrialSalts(4)
	used.b.Exec.SetTrace(true)
	if _, err := used.b.Exec.Run(softmc.NewBuilder(used.b.Timing().TCK).Act(0, 41).Program()); err != nil {
		t.Fatal(err)
	}
	used.b.resetAt(snap)

	fresh, err := src.cloneAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	g, w := used.b, fresh.b
	if g.Chamber.Plant.Temperature() != w.Chamber.Plant.Temperature() || *g.Chamber.PID != *w.Chamber.PID ||
		g.Chamber.Setpoint() != w.Chamber.Setpoint() || g.Chamber.Elapsed() != w.Chamber.Elapsed() {
		t.Fatal("reset chamber differs from a cloned one")
	}
	for i := 0; i < 8; i++ {
		if a, b := g.Chamber.Temperature(), w.Chamber.Temperature(); a != b {
			t.Fatalf("thermocouple read %d: reset %v, clone %v", i, a, b)
		}
	}
	if g.Module.Temperature() != w.Module.Temperature() || g.Exec.Now() != w.Exec.Now() ||
		g.Module.ActiveRow(0) != w.Module.ActiveRow(0) || g.Module.Stats() != w.Module.Stats() {
		t.Fatalf("reset device differs from a cloned one: temp %v/%v, now %v/%v, open row %d/%d",
			g.Module.Temperature(), w.Module.Temperature(), g.Exec.Now(), w.Exec.Now(),
			g.Module.ActiveRow(0), w.Module.ActiveRow(0))
	}

	cfg := HammerConfig{Bank: 0, VictimPhys: 40, Hammers: 300_000, Pattern: PatCheckered, Trial: 1}
	got, err := used.Hammer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Hammer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || g.Module.Stats() != w.Module.Stats() {
		t.Fatalf("hammer on a reset clone differs from a cloned one:\nreset: %+v %+v\nclone: %+v %+v",
			got, g.Module.Stats(), want, w.Module.Stats())
	}
	if got.TotalFlips() == 0 {
		t.Fatal("hammer flipped nothing; test vacuous")
	}
}
