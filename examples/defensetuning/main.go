// Defensetuning demonstrates Defense Improvement 1: configuring
// RowHammer defenses with measured, row-aware HCfirst thresholds
// instead of a single worst-case value.
//
// It profiles a module's rows, derives the worst-case and
// 95th-percentile HCfirst, shows the area savings of a row-aware
// Graphene/BlockHammer configuration, and then runs a live
// double-sided attack against a Graphene tracker to confirm the
// protection holds.
package main

import (
	"context"
	"fmt"
	"log"

	rh "rowhammer"
	"rowhammer/internal/defense"
)

func main() {
	geometry := rh.Geometry{
		Banks: 1, RowsPerBank: 1024, SubarrayRows: 512,
		Chips: 8, ChipWidth: 8, ColumnsPerRow: 64,
	}
	bench, err := rh.NewBench(rh.BenchConfig{
		Profile:  rh.ProfileByName("C"),
		Seed:     11,
		Geometry: geometry,
	})
	if err != nil {
		log.Fatal(err)
	}
	tester := rh.NewTester(bench)

	// Profile HCfirst across a sample of rows (Fig. 11 methodology).
	var rows []int
	for r := 10; r < 1000; r += 25 {
		if r%512 == 0 || r%512 == 511 {
			continue
		}
		rows = append(rows, r)
	}
	profile, err := tester.RowHCFirstProfile(context.Background(), 0, rows, rh.HCFirstConfig{Pattern: rh.PatCheckered}, 3)
	if err != nil {
		log.Fatal(err)
	}
	summary, err := rh.SummarizeRowVariation(profile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %d vulnerable rows: min HCfirst %.0f; 95%% of rows ≥ %.1fx the minimum\n",
		summary.Vulnerable, summary.MinHC, summary.RatioP95)

	// Row-aware configuration: worst case for the weak 5%, relaxed
	// threshold for the rest (Obsv. 12).
	cfgRA := defense.RowAwareConfig{
		WeakRowFraction: 0.05,
		ThresholdWeak:   int64(summary.MinHC),
		ThresholdStrong: int64(summary.MinHC * summary.RatioP95),
		RowsPerBank:     geometry.RowsPerBank,
	}
	fmt.Printf("Graphene area: %.2f%% of die worst-case → %.2f%% row-aware (%.0f%% saving)\n",
		100*defense.GrapheneArea(cfgRA.ThresholdWeak),
		100*defense.RowAwareGrapheneArea(cfgRA),
		100*defense.AreaReduction(defense.GrapheneArea(cfgRA.ThresholdWeak), defense.RowAwareGrapheneArea(cfgRA)))
	fmt.Printf("BlockHammer area: %.2f%% → %.2f%% (%.0f%% saving)\n",
		100*defense.BlockHammerArea(cfgRA.ThresholdWeak),
		100*defense.RowAwareBlockHammerArea(cfgRA),
		100*defense.AreaReduction(defense.BlockHammerArea(cfgRA.ThresholdWeak), defense.RowAwareBlockHammerArea(cfgRA)))

	// Live check: a 512K-hammer attack against a Graphene tracker
	// configured at half the measured worst case.
	victim := rows[len(rows)/2]
	threshold := int64(summary.MinHC / 2)
	tracker := defense.NewGraphene(threshold, 64, geometry.RowsPerBank)
	defended, err := defense.Evaluate(defense.EvalConfig{
		Bench: bench, Mechanism: tracker, Bank: 0, VictimPhys: victim,
		Hammers: 512_000, Pattern: rh.PatCheckered, Trial: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("512K-hammer attack vs Graphene(threshold=%d): %d bit flips, %d preventive refreshes\n",
		threshold, defended.VictimFlips, defended.PreventiveRefreshes)

	// The same attack, undefended.
	bench2, err := rh.NewBench(rh.BenchConfig{Profile: rh.ProfileByName("C"), Seed: 11, Geometry: geometry})
	if err != nil {
		log.Fatal(err)
	}
	bare, err := defense.Evaluate(defense.EvalConfig{
		Bench: bench2, Bank: 0, VictimPhys: victim,
		Hammers: 512_000, Pattern: rh.PatCheckered, Trial: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same attack, undefended: %d bit flips\n", bare.VictimFlips)
}
