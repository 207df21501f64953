// Benchmarks for the Tester-operation layer: one complete §4.2
// measurement — an HCfirst search repeated over trials, a WCDP survey,
// a temperature sweep and a parallel HCfirst profile — on a
// small module, with allocations reported. `make bench-smoke` runs
// them once under the race detector.
package rowhammer_test

import (
	"context"
	"fmt"
	"testing"

	rh "rowhammer"
	"rowhammer/internal/faultmodel"
)

// testerBench builds the Tester the operation benchmarks drive.
func testerBench(b *testing.B, workers int) *rh.Tester {
	b.Helper()
	bench, err := rh.NewBench(rh.BenchConfig{
		Profile: rh.ProfileByName("A"),
		Seed:    61,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 512, SubarrayRows: 256,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 64,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	tr := rh.NewTester(bench)
	tr.SetWorkers(workers)
	return tr
}

// BenchmarkHCFirstMin times one min-of-3 HCfirst search (the Fig. 5,
// 8, 10 and 11 inner loop) on a warm module.
func BenchmarkHCFirstMin(b *testing.B) {
	tr := testerBench(b, 1)
	cfg := rh.HCFirstConfig{Bank: 0, VictimPhys: 100, Pattern: rh.PatCheckered}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := tr.HCFirstMin(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("no HCfirst found; benchmark vacuous")
		}
	}
}

// BenchmarkHCFirstCold times one min-of-3 HCfirst search on a fresh
// module: every iteration builds a new bench outside the timer, so the
// fault model's kernel starts with no candidate set for the row —
// the case of the first search of every row in a profiling campaign,
// which BenchmarkHCFirstMin's warm cache never sees.
func BenchmarkHCFirstCold(b *testing.B) {
	cfg := rh.HCFirstConfig{Bank: 0, VictimPhys: 100, Pattern: rh.PatCheckered}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := testerBench(b, 1)
		b.StartTimer()
		res, err := tr.HCFirstMin(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("no HCfirst found; benchmark vacuous")
		}
	}
}

// BenchmarkTemperatureSweep times one temperature sweep (the Fig. 3/4
// and Table 3 measurement) of a fresh module: three temperature points
// × two victims × two repetitions, twelve victim reads, on one worker
// (the tester's own bench) and on two (one bench clone per worker).
// Besides time and allocations it reports the fault model's work per
// sweep, which is exact and the same on every run: candidate-set
// builds and extensions, the candidate cells they materialized, and
// the victim reads answered from the replay cache.
func BenchmarkTemperatureSweep(b *testing.B) {
	cfg := rh.TempSweepConfig{
		Victims:     []int{100, 201},
		Temps:       []float64{50, 65, 80},
		Hammers:     150_000,
		Pattern:     rh.PatCheckered,
		Repetitions: 2,
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var work faultmodel.KernelStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := testerBench(b, workers)
				b.StartTimer()
				if _, err := tr.TemperatureSweep(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
				st := tr.Bench().Model.KernelStats()
				work.Builds += st.Builds
				work.Extensions += st.Extensions
				work.Cells += st.Cells
				work.ReplayHits += st.ReplayHits
			}
			n := float64(b.N)
			b.ReportMetric(float64(work.Builds)/n, "builds/op")
			b.ReportMetric(float64(work.Extensions)/n, "extensions/op")
			b.ReportMetric(float64(work.Cells)/n, "cells/op")
			b.ReportMetric(float64(work.ReplayHits)/n, "replay-hits/op")
		})
	}
}

// BenchmarkRowHCFirstProfileParallel times one two-worker HCfirst
// profile of 24 rows (the Fig. 11 and 14 measurement): each worker
// resets one bench clone before every row.
func BenchmarkRowHCFirstProfileParallel(b *testing.B) {
	tr := testerBench(b, 2)
	rows := make([]int, 24)
	for i := range rows {
		rows[i] = 10 + 20*i
	}
	cfg := rh.HCFirstConfig{Pattern: rh.PatCheckered}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		profile, err := tr.RowHCFirstProfile(context.Background(), 0, rows, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rh.VulnerableHCs(profile)) == 0 {
			b.Fatal("no row found an HCfirst; benchmark vacuous")
		}
	}
}

// BenchmarkSurveyPatterns times one WCDP survey (§4.2: every Table 1
// pattern on three victims, the first step of every per-module
// measurement) on a warm module. The survey reads only the victims,
// into a result buffer the Tester reuses.
func BenchmarkSurveyPatterns(b *testing.B) {
	tr := testerBench(b, 1)
	victims := []int{100, 201, 302}
	survey := func() {
		s, err := tr.SurveyPatterns(context.Background(), 0, victims, 150_000)
		if err != nil {
			b.Fatal(err)
		}
		if s.BestFlips == 0 {
			b.Fatal("no pattern flipped a bit; benchmark vacuous")
		}
	}
	survey() // warm the module's rows and the fault model's caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		survey()
	}
}
