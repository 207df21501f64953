// Package faultmodel implements the circuit-level RowHammer disturbance
// model behind the simulated DRAM chips: per-cell vulnerability
// parameters derived deterministically from cell coordinates, and four
// manufacturer profiles calibrated against the aggregate statistics the
// paper reports (Fig. 3 temperature-range clusters, Fig. 4/5
// temperature trends, Fig. 7–10 aggressor-on/off-time responses,
// Fig. 11 row variation, Fig. 12/13 column variation, Fig. 14/15
// subarray structure).
//
// The model is a generator, not a lookup table: experiments re-measure
// every statistic through the full command-level methodology, so the
// shape of each figure must emerge from measurement.
package faultmodel

import "rowhammer/internal/dram"

// QuantilePoint is one knot of a quantile function.
type QuantilePoint struct {
	Q, V float64
}

// TempCluster is one vulnerable-temperature-range cluster: cells whose
// range is [LoC, HiC] (Celsius, inclusive), with the cluster's share of
// the vulnerable-cell population. Lo==50 means "extends to or below
// 50 °C"; Hi==90 means "extends to or above 90 °C" (the tested limits).
type TempCluster struct {
	LoC, HiC float64
	Prob     float64
}

// ModuleInfo describes one tested module line (Table 2 / Table 4).
type ModuleInfo struct {
	Type       string // "DDR4" or "DDR3"
	ChipID     string
	Vendor     string
	ModuleID   string
	FreqMTs    int
	DateCode   string
	Density    string
	DieRev     string
	Org        string // x4/x8
	NumModules int
	NumChips   int
}

// Profile holds the calibrated fault-model parameters of one DRAM
// manufacturer.
type Profile struct {
	// Name is the anonymized manufacturer letter ("A".."D").
	Name string
	// MfrLike names the real manufacturer the profile is calibrated
	// against (documentation only).
	MfrLike string

	// RowHCQuantiles is the quantile function of the per-row weakness
	// multiplier: a row's base HCfirst is BaseHC × Q(u). Q(0)=1 by
	// construction (the most vulnerable row defines BaseHC).
	RowHCQuantiles []QuantilePoint
	// BaseHC is the module-level most-vulnerable-row HCfirst (hammers)
	// at 50 °C, baseline timings, worst-case data pattern.
	BaseHC float64
	// ModuleSigma is the lognormal sigma of module-to-module BaseHC
	// variation.
	ModuleSigma float64
	// TailAlpha is the Pareto exponent of the per-cell threshold
	// distribution's lower tail: the number of cells with threshold
	// ≤ h grows as (h/rowHC)^TailAlpha. This single exponent couples
	// the BER and HCfirst sensitivities exactly as the paper's joint
	// data implies: a disturbance multiplier f changes HCfirst by 1/f
	// and BER by f^TailAlpha (e.g. Mfr A: tAggOn ×1.667 ⇒ HCfirst
	// −40%, BER ×1.667^4.55 ≈ ×10.2).
	TailAlpha float64
	// VulnFrac is the fraction of cells that are vulnerable at all
	// (the tail's total mass); the rest never flip.
	VulnFrac float64

	// TempClusters is the Fig. 3 vulnerable-temperature-range
	// distribution (need not be normalized; sampling normalizes).
	TempClusters []TempCluster
	// GapProb is the probability a vulnerable cell skips one interior
	// temperature point of its range (Table 3's complement).
	GapProb float64
	// TempSlope is the fractional change of disturbance effectiveness
	// per °C above 50 °C (positive: hotter ⇒ more vulnerable).
	TempSlope float64
	// InflectionLoC/InflectionHiC bound the per-row temperature
	// inflection point (uniform draw); vulnerability peaks at the
	// inflection (Yang et al. charge-trap model).
	InflectionLoC, InflectionHiC float64
	// InflectionCurvature scales the quadratic vulnerability loss away
	// from the inflection point, per (40 °C)².
	InflectionCurvature float64

	// OnTimeGainPerNs: disturbance multiplier 1 + gain×(tAggOn−34.5ns).
	OnTimeGainPerNs float64
	// OffTimeDecayPerNs: multiplier 1/(1 + decay×(tAggOff−16.5ns)).
	OffTimeDecayPerNs float64

	// ColSigma is the lognormal sigma of per-column threshold factors.
	ColSigma float64
	// ColProcessWeight in [0,1] splits column variance between a
	// design-induced component (shared by every chip of this
	// manufacturer) and a process-induced component (per chip):
	// 0 ⇒ pure design (cross-chip CV = 0), 1 ⇒ pure process.
	ColProcessWeight float64

	// Remap is the internal logical→physical row mapping scheme.
	Remap dram.RemapScheme

	// Modules is the Table 2 / Table 4 inventory.
	Modules []ModuleInfo
}

// RowMultiplier evaluates the row-weakness quantile function at u.
func (p *Profile) RowMultiplier(u float64) float64 {
	return evalQuantiles(p.RowHCQuantiles, u)
}

// evalQuantiles linearly interpolates a quantile function.
func evalQuantiles(qs []QuantilePoint, u float64) float64 {
	if len(qs) == 0 {
		return 1
	}
	if u <= qs[0].Q {
		return qs[0].V
	}
	for i := 1; i < len(qs); i++ {
		if u <= qs[i].Q {
			a, b := qs[i-1], qs[i]
			if b.Q == a.Q {
				return b.V
			}
			f := (u - a.Q) / (b.Q - a.Q)
			return a.V + f*(b.V-a.V)
		}
	}
	return qs[len(qs)-1].V
}
