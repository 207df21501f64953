// Quickstart: build a simulated DRAM module, mount it on the SoftMC
// test bench, find its worst-case data pattern, hammer a victim row,
// and binary-search its HCfirst — the core §4.2 methodology in ~40
// lines.
package main

import (
	"context"
	"fmt"
	"log"

	rh "rowhammer"
)

func main() {
	// A Micron-like DDR4 module; the seed selects the module instance
	// (process variation) deterministically.
	bench, err := rh.NewBench(rh.BenchConfig{
		Profile: rh.ProfileByName("A"),
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	tester := rh.NewTester(bench)

	// Worst-case data pattern over a few sample victims (§4.2).
	victims := []int{100, 200, 300}
	survey, err := tester.SurveyPatterns(context.Background(), 0, victims, 150_000)
	if err != nil {
		log.Fatal(err)
	}
	pattern := survey.Best
	fmt.Printf("worst-case data pattern: %v\n", pattern)

	// Double-sided hammer at the paper's BER operating point.
	res, err := tester.Hammer(rh.HammerConfig{
		Bank:       0,
		VictimPhys: 200,
		Hammers:    150_000,
		Pattern:    pattern,
		Trial:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("150K hammers on row 200: %d flips in the victim, %d/%d in the ±2 single-sided victims (%.2f ms of DRAM time)\n",
		res.Victim.Count(), res.SingleLo.Count(), res.SingleHi.Count(),
		float64(res.DurationP)/1e9)

	// HCfirst via the paper's binary search (256K start, Δ halving to
	// 512), minimum over 5 repetitions.
	hc, err := tester.HCFirstMin(rh.HCFirstConfig{
		Bank:       0,
		VictimPhys: 200,
		Pattern:    pattern,
	}, 5)
	if err != nil {
		log.Fatal(err)
	}
	if hc.Found {
		fmt.Printf("HCfirst of row 200: %d hammers (%d probes)\n", hc.HCfirst, hc.Probes)
	} else {
		fmt.Println("row 200 shows no flips up to 512K hammers")
	}

	// Hotter chip, same row (Obsv. 4/6: Mfr A worsens with heat).
	if err := bench.SetTemperature(90); err != nil {
		log.Fatal(err)
	}
	hot, err := tester.Hammer(rh.HammerConfig{
		Bank: 0, VictimPhys: 200, Hammers: 150_000, Pattern: pattern, Trial: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same test at 90 °C: %d flips (50 °C: %d)\n", hot.Victim.Count(), res.Victim.Count())
}
