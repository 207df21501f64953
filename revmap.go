package rowhammer

import (
	"fmt"

	"rowhammer/internal/dram"
)

// Logical→physical mapping recovery (§4.2): DRAM-internal row
// remapping is reverse engineered by single-sided hammering each row
// and observing which two rows flip the most — those are the
// physically adjacent rows. The recovered adjacency is then matched
// against candidate mapping schemes.

// revmapHammers is the hammer count used for adjacency probing: large
// enough that physically adjacent rows of even the strongest module
// flip reliably.
const revmapHammers = 400_000

// AdjacencyProbe single-sided hammers the given logical row and
// returns the logical addresses of the two rows with the most bit
// flips (the inferred physical neighbors), among candidates within
// ±window logical rows.
func (t *Tester) AdjacencyProbe(bank, logicalRow, window int) ([]int, error) {
	g := t.b.Geometry()
	tm := t.b.Timing()

	// Initialize the window with a pattern that maximizes coupling for
	// both cell orientations.
	lo := logicalRow - window
	hi := logicalRow + window
	if lo < 0 {
		lo = 0
	}
	if hi >= g.RowsPerBank {
		hi = g.RowsPerBank - 1
	}
	pat := dram.PatCheckered
	bld := newRowFiller(t, bank, pat)
	for l := lo; l <= hi; l++ {
		// Fill by *logical* row here: physical identity is unknown to
		// the procedure. Use distance parity from the hammered row so
		// the aggressor's data maximizes coupling regardless of the
		// true physical interleaving.
		bld.fill(l, l-logicalRow)
	}
	if err := bld.run(); err != nil {
		return nil, err
	}

	// Single-sided hammer.
	hb := newBuilder(tm)
	hb.Hammer(bank, []int{logicalRow}, revmapHammers, tm.TRAS, tm.TRP)
	if _, err := t.b.Exec.Run(hb.Program()); err != nil {
		return nil, err
	}

	// Read every row in the window, count flips.
	type rowFlips struct{ row, flips int }
	var counts []rowFlips
	for l := lo; l <= hi; l++ {
		if l == logicalRow {
			continue
		}
		fs, err := t.readLogicalRowFlips(bank, l, l-logicalRow, pat)
		if err != nil {
			return nil, err
		}
		counts = append(counts, rowFlips{row: l, flips: fs.Count()})
	}
	// Top two.
	best, second := -1, -1
	for i, c := range counts {
		if best < 0 || c.flips > counts[best].flips {
			second = best
			best = i
		} else if second < 0 || c.flips > counts[second].flips {
			second = i
		}
	}
	var out []int
	if best >= 0 && counts[best].flips > 0 {
		out = append(out, counts[best].row)
	}
	if second >= 0 && counts[second].flips > 0 {
		out = append(out, counts[second].row)
	}
	return out, nil
}

// readLogicalRowFlips reads a row by logical address and diffs it
// against the pattern written for the given distance label.
func (t *Tester) readLogicalRowFlips(bank, logical, dist int, pat dram.PatternKind) (FlipSet, error) {
	g := t.b.Geometry()
	tm := t.b.Timing()
	bld := newBuilder(tm)
	bld.Act(bank, logical).Wait(tm.TRCD)
	bld.RdRow(bank, g.ColumnsPerRow, tm.TCCD)
	bld.Wait(tm.TRAS).Pre(bank).Wait(tm.TRP)
	res, err := t.b.Exec.Run(bld.Program())
	if err != nil {
		return FlipSet{}, err
	}
	want := make([]uint64, g.ColumnsPerRow)
	t.fillRow(want, bank, logical, dist, pat)
	return FlipSet{Bits: t.appendFlips(nil, res.Reads, want)}, nil
}

// CandidateSchemes are the mapping schemes RecoverMapping tests
// against measured adjacency, covering the behaviors observed across
// the four manufacturers.
func CandidateSchemes() []dram.RemapScheme {
	return []dram.RemapScheme{dram.DirectRemap{}, dram.MirrorRemap{}, dram.DefaultScramble()}
}

// RecoverMapping probes the adjacency of the given logical rows and
// returns the candidate scheme consistent with every observation. It
// then installs the recovered scheme in the Tester.
func (t *Tester) RecoverMapping(bank int, probeRows []int, window int) (dram.RemapScheme, error) {
	type probe struct {
		row       int
		neighbors []int
	}
	var probes []probe
	for _, r := range probeRows {
		n, err := t.AdjacencyProbe(bank, r, window)
		if err != nil {
			return nil, err
		}
		if len(n) == 0 {
			return nil, fmt.Errorf("rowhammer: adjacency probe of row %d found no victims", r)
		}
		probes = append(probes, probe{row: r, neighbors: n})
	}

	for _, scheme := range CandidateSchemes() {
		ok := true
		for _, p := range probes {
			phys := scheme.ToPhysical(p.row)
			for _, n := range p.neighbors {
				np := scheme.ToPhysical(n)
				if np != phys-1 && np != phys+1 {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			t.UseMapping(scheme)
			return scheme, nil
		}
	}
	return nil, fmt.Errorf("rowhammer: no candidate scheme matches measured adjacency")
}

// RecoverMappingTable reverse engineers the mapping of a contiguous
// block of logical rows without assuming any candidate scheme: every
// row in [blockStart, blockStart+blockLen) is adjacency-probed and
// the resulting graph is reconstructed into a physical ordering
// (rows form a path in physical space). The block must map onto a
// contiguous physical block whose base is blockStart's — true for
// group-local remappings like the ones observed in real chips.
//
// The recovered TableRemap is installed in the Tester and returned.
func (t *Tester) RecoverMappingTable(bank, blockStart, blockLen int) (dram.RemapScheme, error) {
	if blockLen < 3 {
		return nil, fmt.Errorf("rowhammer: block of %d rows too small to orient", blockLen)
	}
	adjacency := make(map[int][]int, blockLen)
	for l := blockStart; l < blockStart+blockLen; l++ {
		ns, err := t.AdjacencyProbe(bank, l, blockLen)
		if err != nil {
			return nil, err
		}
		// Keep only in-block neighbors: edge rows of the block see one
		// out-of-block neighbor, which the path reconstruction must
		// not include.
		var inBlock []int
		for _, n := range ns {
			if n >= blockStart && n < blockStart+blockLen {
				inBlock = append(inBlock, n)
			}
		}
		adjacency[l] = inBlock
	}
	order, err := dram.ReconstructOrder(adjacency)
	if err != nil {
		return nil, fmt.Errorf("rowhammer: adjacency reconstruction: %w", err)
	}
	table, err := dram.TableFromOrder(order, blockStart, t.b.Geometry().RowsPerBank)
	if err != nil {
		return nil, err
	}
	t.UseMapping(table)
	return table, nil
}
