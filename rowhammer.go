// Package rowhammer implements the experimental methodology of
// "A Deeper Look into RowHammer's Sensitivities: Experimental Analysis
// of Real DRAM Chips and Implications on Future Attacks and Defenses"
// (Orosa & Yağlıkçı et al., MICRO 2021) on top of a simulated SoftMC +
// DRAM test bench.
//
// The package provides:
//
//   - Bench: one device under test — a DRAM module with its
//     circuit-level fault model, a SoftMC-style command sequencer, and
//     a PID-controlled thermal chamber.
//   - Tester: the paper's §4.2 methodology — double-sided hammering
//     with worst-case data patterns, BER measurement, HCfirst binary
//     search, logical→physical mapping recovery, temperature sweeps,
//     and the spatial-variation analyses.
//
// All results are deterministic for a given module seed and trial
// number, which makes every experiment in the paper reproducible
// bit-for-bit.
package rowhammer

import (
	"fmt"

	"rowhammer/internal/dram"
	"rowhammer/internal/faultmodel"
	"rowhammer/internal/softmc"
	"rowhammer/internal/thermal"
)

// BenchConfig configures one device under test.
type BenchConfig struct {
	// Profile selects the manufacturer fault profile (required).
	Profile *faultmodel.Profile
	// Seed identifies the module instance (process variation).
	Seed uint64
	// Geometry defaults to dram.DefaultDDR4Geometry().
	Geometry dram.Geometry
	// Timing defaults to dram.DDR4Timing().
	Timing dram.Timing
	// TRR enables in-DRAM target row refresh. The characterization
	// methodology leaves it nil (and never refreshes), as in §4.2.
	TRR *dram.TRRConfig
	// OnDieECC enables the (72,64) SECDED code. Characterization
	// modules have no ECC (§4.2).
	OnDieECC bool
	// Retention enables data-retention failure modeling; nil (off)
	// matches §4.2's interference-free setup, and enabling it lets
	// experiments verify that short tests stay retention-clean.
	Retention *dram.RetentionConfig
}

// Bench is one DRAM module under test with its full instrumentation.
type Bench struct {
	Module  *dram.Module
	Model   *faultmodel.Model
	Exec    *softmc.Executor
	Chamber *thermal.Chamber
	Profile *faultmodel.Profile
	Seed    uint64

	// cfg is the normalized construction config, kept so Clone can
	// rebuild an identical independent bench.
	cfg BenchConfig
	// settled is an immutable copy of the chamber just after
	// construction settled it at 50 °C; clones start from a copy of it.
	settled *thermal.Chamber
}

// NewBench builds a device under test.
func NewBench(cfg BenchConfig) (*Bench, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("rowhammer: BenchConfig.Profile is required")
	}
	if cfg.Geometry == (dram.Geometry{}) {
		cfg.Geometry = dram.DefaultDDR4Geometry()
	}
	if cfg.Timing == (dram.Timing{}) {
		cfg.Timing = dram.DDR4Timing()
	}
	model, err := faultmodel.NewModel(faultmodel.Config{
		Profile:    cfg.Profile,
		ModuleSeed: cfg.Seed,
		Geometry:   cfg.Geometry,
	})
	if err != nil {
		return nil, err
	}
	b, err := assembleBench(cfg, model, thermal.NewChamber(cfg.Seed))
	if err != nil {
		return nil, err
	}
	// The chamber idles at 50 °C (§4.1).
	if err := b.SetTemperature(50); err != nil {
		return nil, err
	}
	b.settled = b.Chamber.Clone()
	return b, nil
}

// assembleBench builds a fresh module and executor around model from
// a normalized config, with ch as the bench's chamber.
func assembleBench(cfg BenchConfig, model *faultmodel.Model, ch *thermal.Chamber) (*Bench, error) {
	mod, err := dram.NewModule(dram.ModuleConfig{
		Geometry:     cfg.Geometry,
		Timing:       cfg.Timing,
		Remap:        cfg.Profile.Remap,
		Disturber:    model,
		TRR:          cfg.TRR,
		OnDieECC:     cfg.OnDieECC,
		Retention:    cfg.Retention,
		Seed:         cfg.Seed,
		InitialTempC: 50,
	})
	if err != nil {
		return nil, err
	}
	return &Bench{
		Module:  mod,
		Model:   model,
		Exec:    softmc.NewExecutor(mod),
		Chamber: ch,
		Profile: cfg.Profile,
		Seed:    cfg.Seed,
		cfg:     cfg,
	}, nil
}

// Clone builds an independent bench equal to a freshly constructed
// one with the same configuration: a fresh module and executor, a
// copy of the chamber exactly as construction left it (plant, PID
// state, elapsed time and thermocouple noise stream — the construction
// settle is not re-run), and a Fork of the fault model. The fork
// shares the module's immutable tables and sharded kernel cache
// (candidate sets are pure functions of the module, so sharing only
// deduplicates work) and starts with empty per-model caches, exactly
// like a freshly built model. The parallel measurement cores build one
// clone per pool worker and reset it in place before every unit of
// work (resetAt), so a clone serves as a hermetic device under test
// for many units.
func (b *Bench) Clone() (*Bench, error) { return b.cloneAt(b.settled) }

// cloneAt is Clone with the new bench's chamber a copy of ch (a state
// some chamber of this configuration reached) and the module at ch's
// plant temperature, as SetTemperature would have left it.
func (b *Bench) cloneAt(ch *thermal.Chamber) (*Bench, error) {
	c, err := assembleBench(b.cfg, b.Model.Fork(), ch.Clone())
	if err != nil {
		return nil, err
	}
	c.settled = b.settled
	c.Module.SetTemperature(c.Chamber.Plant.Temperature())
	return c, nil
}

// resetAt returns a clone, whatever it ran since, to the state
// cloneAt(ch) builds: the chamber becomes a copy of ch, the module and
// executor are reset to new, and the module takes ch's plant
// temperature. The model fork is kept: its row and replay caches are
// exact-input memos, every test sets its trial salt (and every unit
// declares its trial batch) before it disturbs anything, and its walk
// buffers are scratch.
func (b *Bench) resetAt(ch *thermal.Chamber) {
	b.Chamber.CopyFrom(ch)
	b.Module.Reset()
	b.Exec.Reset()
	b.Module.SetTemperature(b.Chamber.Plant.Temperature())
}

// SetTemperature drives the thermal chamber to tempC, waits for the
// closed loop to settle, and exposes the resulting die temperature to
// the module.
func (b *Bench) SetTemperature(tempC float64) error {
	if err := b.Chamber.SetAndSettle(tempC); err != nil {
		return err
	}
	b.Module.SetTemperature(b.Chamber.Plant.Temperature())
	return nil
}

// Geometry returns the module geometry.
func (b *Bench) Geometry() dram.Geometry { return b.Module.Geometry() }

// Timing returns the module timing set.
func (b *Bench) Timing() dram.Timing { return b.Module.Timing() }

// Scale bounds the work each experiment does. The paper tests the
// first/middle/last 8K rows of a bank with up to 512K hammers; the
// defaults here are chosen so the full experiment suite runs in
// minutes while remaining statistically stable.
type Scale struct {
	// RowsPerRegion is the number of victim rows tested per bank
	// region.
	RowsPerRegion int
	// Regions is how many regions (first/middle/last) are tested.
	Regions int
	// Hammers is the hammer count of BER tests (paper: 150K).
	Hammers int64
	// MaxHammers caps HCfirst searches (paper: 512K).
	MaxHammers int64
	// Repetitions per test (paper: 5).
	Repetitions int
	// ModulesPerMfr is how many module instances are tested per
	// manufacturer.
	ModulesPerMfr int
}

// DefaultScale returns the test-suite scale.
func DefaultScale() Scale {
	return Scale{
		RowsPerRegion: 48,
		Regions:       3,
		Hammers:       150_000,
		MaxHammers:    512_000,
		Repetitions:   3,
		ModulesPerMfr: 2,
	}
}

// PaperScale returns the full study scale (hours of CPU time).
func PaperScale() Scale {
	return Scale{
		RowsPerRegion: 8192,
		Regions:       3,
		Hammers:       150_000,
		MaxHammers:    512_000,
		Repetitions:   5,
		ModulesPerMfr: 4,
	}
}

// RegionRows returns the physical victim rows of the scale's regions:
// the paper tests the first, middle and last rows of a bank. Rows on
// subarray edges (no in-subarray neighbor on both sides) are skipped,
// since a double-sided attack needs both physical neighbors.
func (s Scale) RegionRows(g dram.Geometry) []int {
	starts := []int{0, (g.RowsPerBank - s.RowsPerRegion) / 2, g.RowsPerBank - s.RowsPerRegion}
	if s.Regions < len(starts) {
		starts = starts[:s.Regions]
	}
	var rows []int
	seen := make(map[int]bool)
	for _, start := range starts {
		if start < 0 {
			start = 0
		}
		for r := start; r < start+s.RowsPerRegion && r < g.RowsPerBank; r++ {
			if seen[r] {
				continue
			}
			if r%g.SubarrayRows == 0 || r%g.SubarrayRows == g.SubarrayRows-1 {
				continue
			}
			seen[r] = true
			rows = append(rows, r)
		}
	}
	return rows
}
