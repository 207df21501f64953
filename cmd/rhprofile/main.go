// Command rhprofile characterizes one simulated DRAM module and emits
// a machine-readable JSON profile: the data a deployed row-aware
// defense (Defense Improvement 1), retirement policy (Improvement 3)
// or column-aware ECC planner (Improvement 6) would consume.
//
// Usage:
//
//	rhprofile -mfr A -seed 1 -rows 64 > module-a1.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	rh "rowhammer"
	"rowhammer/internal/profiling"
)

// Profile is the emitted document.
type Profile struct {
	Manufacturer string  `json:"manufacturer"`
	Seed         uint64  `json:"seed"`
	Pattern      string  `json:"worst_case_pattern"`
	MinHCfirst   int64   `json:"min_hcfirst"`
	P95Ratio     float64 `json:"p95_over_min_ratio"`

	Rows []RowProfile `json:"rows"`
	// VulnerableCells lists per-cell vulnerable temperature ranges
	// observed in the temperature sweep.
	VulnerableCells []CellProfile `json:"vulnerable_cells,omitempty"`
}

// RowProfile is one row's measurement.
type RowProfile struct {
	Row     int   `json:"row"`
	HCfirst int64 `json:"hcfirst,omitempty"`
	Found   bool  `json:"vulnerable"`
}

// CellProfile is one vulnerable cell's observed temperature range.
type CellProfile struct {
	Row   int     `json:"row"`
	Bit   int     `json:"bit"`
	TempL float64 `json:"temp_lo_c"`
	TempH float64 `json:"temp_hi_c"`
}

func main() {
	var (
		mfr        = flag.String("mfr", "A", "manufacturer profile (A-D)")
		seed       = flag.Uint64("seed", 1, "module seed")
		rows       = flag.Int("rows", 48, "victim rows to profile")
		reps       = flag.Int("reps", 3, "repetitions per measurement")
		temps      = flag.Bool("temps", false, "include the temperature sweep (slower)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stop()
	stopProfiles = stop

	p := rh.ProfileByName(*mfr)
	if p == nil {
		fmt.Fprintf(os.Stderr, "rhprofile: unknown manufacturer %q\n", *mfr)
		os.Exit(2)
	}
	bench, err := rh.NewBench(rh.BenchConfig{Profile: p, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	t := rh.NewTester(bench)
	g := bench.Geometry()

	// Victim rows spread across the bank, off subarray edges.
	var victims []int
	step := g.RowsPerBank / (*rows + 1)
	if step < 1 {
		step = 1
	}
	for r := step; r < g.RowsPerBank && len(victims) < *rows; r += step {
		if r%g.SubarrayRows == 0 || r%g.SubarrayRows == g.SubarrayRows-1 {
			continue
		}
		victims = append(victims, r)
	}

	pattern, err := t.WorstCasePattern(0, victims[:min(3, len(victims))], 150_000)
	if err != nil {
		fatal(err)
	}
	profile, err := t.RowHCFirstProfile(0, victims, rh.HCFirstConfig{Pattern: pattern}, *reps)
	if err != nil {
		fatal(err)
	}
	summary, err := rh.SummarizeRowVariation(profile)
	if err != nil {
		fatal(err)
	}

	out := Profile{
		Manufacturer: p.Name,
		Seed:         *seed,
		Pattern:      pattern.String(),
		MinHCfirst:   int64(summary.MinHC),
		P95Ratio:     summary.RatioP95,
	}
	for _, r := range profile {
		out.Rows = append(out.Rows, RowProfile{Row: r.Row, HCfirst: r.HCfirst, Found: r.Found})
	}

	if *temps {
		sweep, err := t.TemperatureSweep(rh.TempSweepConfig{
			Bank: 0, Victims: victims, Hammers: 300_000, Pattern: pattern,
		})
		if err != nil {
			fatal(err)
		}
		for cell, mask := range sweep.Cells {
			lo, hi := rh.MaskRange(mask)
			out.VulnerableCells = append(out.VulnerableCells, CellProfile{
				Row: cell.Row, Bit: cell.Bit,
				TempL: sweep.Temps[lo], TempH: sweep.Temps[hi],
			})
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

// stopProfiles is invoked by fatal before os.Exit (which would skip
// the deferred stop and truncate any in-flight CPU profile).
var stopProfiles = func() {}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "rhprofile:", err)
	os.Exit(1)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
