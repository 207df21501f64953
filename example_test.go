package rowhammer_test

import (
	"context"
	"fmt"
	"log"

	rh "rowhammer"
)

// Example demonstrates the core characterization flow: hammer a victim
// row double-sided and binary-search its HCfirst.
func Example() {
	bench, err := rh.NewBench(rh.BenchConfig{
		Profile: rh.ProfileByName("A"),
		Seed:    1,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 256, SubarrayRows: 256,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 64,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	tester := rh.NewTester(bench)

	res, err := tester.Hammer(rh.HammerConfig{
		Bank: 0, VictimPhys: 100, Hammers: 150_000,
		Pattern: rh.PatCheckered, Trial: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	hc, err := tester.HCFirst(rh.HCFirstConfig{
		Bank: 0, VictimPhys: 100, Pattern: rh.PatCheckered, Trial: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flips at 150K hammers: %d\n", res.Victim.Count())
	fmt.Printf("HCfirst found: %v\n", hc.Found)
	// Output:
	// flips at 150K hammers: 5
	// HCfirst found: true
}

// ExampleTester_SurveyPatterns finds the Table 1 data pattern that
// maximizes bit flips on a module (§4.2).
func ExampleTester_SurveyPatterns() {
	bench, err := rh.NewBench(rh.BenchConfig{
		Profile: rh.ProfileByName("C"),
		Seed:    5,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 256, SubarrayRows: 256,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 64,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	tester := rh.NewTester(bench)
	s, err := tester.SurveyPatterns(context.Background(), 0, []int{64, 128, 192}, 200_000)
	if err != nil {
		log.Fatal(err)
	}
	_ = s.Best // module-specific; one of the seven Table 1 patterns
	fmt.Println(len(rh.AllPatterns), "candidate patterns")
	// Output: 7 candidate patterns
}
