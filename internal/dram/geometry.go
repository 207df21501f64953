// Package dram implements a command-level simulator of DDR3/DDR4 DRAM
// modules: the hierarchical organization (module→rank→chip→bank→
// subarray→row→cell), the JEDEC command set with timing-rule checking,
// per-bank state machines, in-DRAM logical→physical row remapping,
// Target Row Refresh (TRR) samplers, and on-die ECC.
//
// The simulator exposes exactly the interface a memory controller (our
// internal/softmc) sees on real hardware: ACT/PRE/RD/WR/REF commands
// with data, subject to timing parameters. Circuit-level RowHammer
// disturbance is delegated to a pluggable Disturber (implemented by
// internal/faultmodel), which the bank consults whenever a row's charge
// is sensed (on activation) — mirroring how disturbance in a real chip
// manifests only when the victim row is next opened or refreshed.
//
// A row's disturbance is applied when something can observe it. An
// activation applies retention decay at once but defers the disturb
// evaluation until the open row is read, partially written or closed
// (or peeked, or the controller settles the device at a program
// boundary). A burst that overwrites every column first drops it: the
// flips would be overwritten before anything could read them. While
// the row is open nothing else in its bank can change, so the deferred
// evaluation sees exactly the inputs the activation saw.
package dram

import "fmt"

// Geometry describes the physical organization of one DRAM module.
// A module is a rank of Chips operating in lock-step; each chip
// contributes ChipWidth bits to every column access.
type Geometry struct {
	// Banks per chip (all chips in the rank share bank addressing).
	Banks int
	// RowsPerBank is the number of physical rows in each bank.
	RowsPerBank int
	// SubarrayRows is the number of rows per subarray. Disturbance does
	// not propagate across subarray boundaries (sense-amplifier stripes
	// isolate neighboring subarrays).
	SubarrayRows int
	// Chips in the rank (e.g. 8 for a x8 ECC-less DIMM rank).
	Chips int
	// ChipWidth is the output width of one chip in bits (x4, x8, x16).
	ChipWidth int
	// ColumnsPerRow is the number of column addresses per row.
	ColumnsPerRow int
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.Banks <= 0:
		return fmt.Errorf("dram: invalid bank count %d", g.Banks)
	case g.RowsPerBank <= 0:
		return fmt.Errorf("dram: invalid rows per bank %d", g.RowsPerBank)
	case g.SubarrayRows <= 0 || g.SubarrayRows > g.RowsPerBank:
		return fmt.Errorf("dram: invalid subarray size %d", g.SubarrayRows)
	case g.RowsPerBank%g.SubarrayRows != 0:
		return fmt.Errorf("dram: rows per bank %d not a multiple of subarray size %d", g.RowsPerBank, g.SubarrayRows)
	case g.Chips <= 0:
		return fmt.Errorf("dram: invalid chip count %d", g.Chips)
	case g.ChipWidth != 4 && g.ChipWidth != 8 && g.ChipWidth != 16:
		return fmt.Errorf("dram: invalid chip width x%d", g.ChipWidth)
	case g.ColumnsPerRow <= 0:
		return fmt.Errorf("dram: invalid columns per row %d", g.ColumnsPerRow)
	}
	return nil
}

// RowBits returns the number of data bits in one module-level row
// (the concatenation of the per-chip rows).
func (g Geometry) RowBits() int { return g.Chips * g.ChipWidth * g.ColumnsPerRow }

// BeatBits returns the width of one column access in bits: every chip
// of the rank contributes ChipWidth bits. Column col's beat occupies
// row bits col·BeatBits through col·BeatBits+BeatBits−1.
func (g Geometry) BeatBits() int { return g.Chips * g.ChipWidth }

// RowWords returns the number of 64-bit words backing one row.
func (g Geometry) RowWords() int { return (g.RowBits() + 63) / 64 }

// ChipRowBits returns the number of bits one chip stores per row.
func (g Geometry) ChipRowBits() int { return g.ChipWidth * g.ColumnsPerRow }

// Subarrays returns the number of subarrays per bank.
func (g Geometry) Subarrays() int { return g.RowsPerBank / g.SubarrayRows }

// SubarrayOf returns the subarray index containing physical row r.
func (g Geometry) SubarrayOf(r int) int { return r / g.SubarrayRows }

// SameSubarray reports whether physical rows a and b share a subarray.
func (g Geometry) SameSubarray(a, b int) bool { return g.SubarrayOf(a) == g.SubarrayOf(b) }

// BitIndex returns the index of a bit within a row's backing words for
// the given chip, column and intra-chip bit line.
//
// Bits are laid out column-major across chips, matching how a burst
// access gathers ChipWidth bits from every chip at one column address:
// bit = (col*Chips + chip)*ChipWidth + line.
func (g Geometry) BitIndex(chip, col, line int) int {
	return (col*g.Chips+chip)*g.ChipWidth + line
}

// BitLocation inverts BitIndex, returning (chip, column, line) of an
// absolute row-bit index.
func (g Geometry) BitLocation(bit int) (chip, col, line int) {
	line = bit % g.ChipWidth
	rest := bit / g.ChipWidth
	chip = rest % g.Chips
	col = rest / g.Chips
	return chip, col, line
}

// DefaultDDR4Geometry returns a reduced-scale DDR4 x8 geometry used by
// tests: real row stride behavior with tractable row/column counts.
func DefaultDDR4Geometry() Geometry {
	return Geometry{
		Banks:         4,
		RowsPerBank:   2048,
		SubarrayRows:  512,
		Chips:         8,
		ChipWidth:     8,
		ColumnsPerRow: 128,
	}
}

// DefaultDDR3Geometry returns a reduced-scale DDR3 x8 geometry.
func DefaultDDR3Geometry() Geometry {
	return Geometry{
		Banks:         4,
		RowsPerBank:   1024,
		SubarrayRows:  512,
		Chips:         8,
		ChipWidth:     8,
		ColumnsPerRow: 128,
	}
}
