// Subarrayprofile demonstrates Defense Improvement 2: because
// subarrays within a module share very similar HCfirst distributions
// (Obsv. 15/16), profiling one subarray plus a manufacturer-level
// min-vs-avg linear model predicts a whole module's worst-case
// HCfirst at a fraction of the profiling cost.
package main

import (
	"context"
	"fmt"
	"log"

	rh "rowhammer"
)

// profileModule measures per-subarray HCfirst statistics of one module
// instance.
func profileModule(seed uint64, geometry rh.Geometry, rowsPerSub int) ([]rh.SubarrayStat, error) {
	bench, err := rh.NewBench(rh.BenchConfig{
		Profile:  rh.ProfileByName("C"),
		Seed:     seed,
		Geometry: geometry,
	})
	if err != nil {
		return nil, err
	}
	tester := rh.NewTester(bench)
	var rows []int
	step := geometry.SubarrayRows / (rowsPerSub + 1)
	for sub := 0; sub < geometry.Subarrays(); sub++ {
		for k := 1; k <= rowsPerSub; k++ {
			rows = append(rows, sub*geometry.SubarrayRows+k*step)
		}
	}
	profile, err := tester.RowHCFirstProfile(context.Background(), 0, rows, rh.HCFirstConfig{Pattern: rh.PatCheckered}, 1)
	if err != nil {
		return nil, err
	}
	return rh.GroupBySubarray(geometry, profile), nil
}

func main() {
	geometry := rh.Geometry{
		Banks: 1, RowsPerBank: 2048, SubarrayRows: 256,
		Chips: 8, ChipWidth: 8, ColumnsPerRow: 64,
	}

	// Step 1: fully profile two "reference" modules of the
	// manufacturer and fit the min-vs-avg relation (Fig. 14).
	var training []rh.SubarrayStat
	for seed := uint64(100); seed < 102; seed++ {
		subs, err := profileModule(seed, geometry, 10)
		if err != nil {
			log.Fatal(err)
		}
		training = append(training, subs...)
	}
	fit, err := rh.FitSubarrayMinVsAvg(training)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference fit over %d subarrays: min = %.2f x avg %+.0f (R²=%.2f)\n",
		fit.N, fit.Slope, fit.Intercept, fit.R2)

	// Through-origin ratio estimator: robust for transferring across
	// modules whose absolute HCfirst levels differ.
	ratioSum := 0.0
	for _, s := range training {
		ratioSum += s.Min / s.Avg
	}
	ratio := ratioSum / float64(len(training))

	// Step 2: a *new* module arrives. Profile just one of its eight
	// subarrays and predict the module's worst case.
	newModule, err := profileModule(999, geometry, 10)
	if err != nil {
		log.Fatal(err)
	}
	sampled := newModule[0]
	predicted := ratio * sampled.Avg

	trueMin := newModule[0].Min
	for _, s := range newModule[1:] {
		if s.Min < trueMin {
			trueMin = s.Min
		}
	}
	fmt.Printf("new module: sampled subarray avg HCfirst %.0f\n", sampled.Avg)
	fmt.Printf("predicted module worst case: %.0f   (true: %.0f, error %+.0f%%)\n",
		predicted, trueMin, 100*(predicted-trueMin)/trueMin)
	fmt.Printf("profiling cost: 1 of %d subarrays → %dx faster\n",
		len(newModule), len(newModule))

	// Similarity check backing the method (Obsv. 16).
	sim := rh.SubarraySimilarity(newModule[0], newModule[len(newModule)-1])
	fmt.Printf("Bhattacharyya similarity of the module's first and last subarray: %.2f (1.0 = identical)\n", sim)
}
