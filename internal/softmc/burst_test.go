package softmc

import (
	"fmt"
	"reflect"
	"testing"

	"rowhammer/internal/dram"
)

// burstGeometries are the burst tests' module geometries: 8×8 chips
// give 64-bit beats (the word-aligned burst path), 4×4 chips 16-bit
// beats (the per-beat path).
var burstGeometries = []dram.Geometry{
	{Banks: 2, RowsPerBank: 64, SubarrayRows: 64, Chips: 8, ChipWidth: 8, ColumnsPerRow: 8},
	{Banks: 2, RowsPerBank: 64, SubarrayRows: 64, Chips: 4, ChipWidth: 4, ColumnsPerRow: 8},
}

// burstModule builds a 64-bit-beat module with on-die ECC optionally
// enabled (the burst path must reproduce the per-command ECC
// encode/decode exactly).
func burstModule(t *testing.T, ecc bool) *dram.Module {
	return burstModuleGeo(t, burstGeometries[0], ecc)
}

func burstModuleGeo(t *testing.T, geo dram.Geometry, ecc bool) *dram.Module {
	t.Helper()
	m, err := dram.NewModule(dram.ModuleConfig{
		Geometry: geo,
		Timing:   dram.DDR4Timing(),
		OnDieECC: ecc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// burstWords is an arbitrary column payload exercising all beat bits.
func burstWords(n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = 0xdeadbeefcafe0000 + uint64(i)*0x0101010101010101
	}
	return w
}

// TestBurstMatchesPerCommandSequence proves the KWrRow/KRdRow bulk
// path is bit-identical to the equivalent Wr/Rd+Wait command
// sequences — for 64-bit and 16-bit beats, ECC on and off: same read
// data, same end time, same module stats, and same stored rows.
func TestBurstMatchesPerCommandSequence(t *testing.T) {
	for _, geo := range burstGeometries {
		for _, ecc := range []bool{false, true} {
			t.Run(fmt.Sprintf("beat=%d/ecc=%v", geo.Chips*geo.ChipWidth, ecc), func(t *testing.T) {
				testBurstMatchesPerCommandSequence(t, geo, ecc)
			})
		}
	}
}

func testBurstMatchesPerCommandSequence(t *testing.T, geo dram.Geometry, ecc bool) {
	words := burstWords(8)

	run := func(bulk bool) (*Result, dram.Stats, []uint64, error) {
		m := burstModuleGeo(t, geo, ecc)
		tm := m.Timing()
		b := NewBuilder(tm.TCK)
		b.Act(0, 5).Wait(tm.TRCD)
		if bulk {
			b.WrRow(0, words, tm.TCCD)
		} else {
			for col, w := range words {
				b.Wr(0, col, w)
				b.Wait(tm.TCCD)
			}
		}
		b.Wait(tm.TRAS).Pre(0).Wait(tm.TRP)
		b.Act(0, 5).Wait(tm.TRCD)
		if bulk {
			b.RdRow(0, len(words), tm.TCCD)
		} else {
			for col := range words {
				b.Rd(0, col)
				b.Wait(tm.TCCD)
			}
		}
		b.Wait(tm.TRAS).Pre(0).Wait(tm.TRP)
		res, err := NewExecutor(m).Run(b.Program())
		return res, m.Stats(), m.PeekRow(0, 5), err
	}

	seqRes, seqStats, seqRow, err := run(false)
	if err != nil {
		t.Fatalf("ecc=%v per-command: %v", ecc, err)
	}
	bulkRes, bulkStats, bulkRow, err := run(true)
	if err != nil {
		t.Fatalf("ecc=%v bulk: %v", ecc, err)
	}
	if !reflect.DeepEqual(seqRes.Reads, bulkRes.Reads) {
		t.Errorf("ecc=%v reads diverged:\nseq:  %#x\nbulk: %#x", ecc, seqRes.Reads, bulkRes.Reads)
	}
	if seqRes.End != bulkRes.End {
		t.Errorf("ecc=%v end time diverged: seq %d, bulk %d", ecc, seqRes.End, bulkRes.End)
	}
	if seqStats != bulkStats {
		t.Errorf("ecc=%v stats diverged:\nseq:  %+v\nbulk: %+v", ecc, seqStats, bulkStats)
	}
	if !reflect.DeepEqual(seqRow, bulkRow) {
		t.Errorf("ecc=%v stored row diverged", ecc)
	}
}

// TestBurstFollowOnTimingMatches proves the bank timestamps a burst
// leaves behind gate follow-on commands exactly like the per-command
// sequence: a PRE issued tWR-too-early after the burst's last write
// must fail identically.
func TestBurstFollowOnTimingMatches(t *testing.T) {
	words := burstWords(8)
	run := func(bulk bool) error {
		m := burstModule(t, false)
		tm := m.Timing()
		b := NewBuilder(tm.TCK)
		b.Act(0, 5).Wait(tm.TRCD)
		if bulk {
			b.WrRow(0, words, tm.TCCD)
		} else {
			for col, w := range words {
				b.Wr(0, col, w)
				b.Wait(tm.TCCD)
			}
		}
		// No tWR wait: PRE arrives too soon after the last write.
		b.Pre(0)
		_, err := NewExecutor(m).Run(b.Program())
		return err
	}
	seqErr, bulkErr := run(false), run(true)
	if seqErr == nil || bulkErr == nil {
		t.Fatalf("expected tWR violations, got seq=%v bulk=%v", seqErr, bulkErr)
	}
}

// TestBurstValidation exercises the bulk-path protocol checks.
func TestBurstValidation(t *testing.T) {
	m := burstModule(t, false)
	tm := m.Timing()

	// Write to a precharged bank.
	b := NewBuilder(tm.TCK)
	b.WrRow(0, burstWords(4), tm.TCCD)
	if _, err := NewExecutor(m).Run(b.Program()); err == nil {
		t.Error("burst write to precharged bank succeeded")
	}

	// Burst longer than the row.
	m2 := burstModule(t, false)
	b2 := NewBuilder(tm.TCK)
	b2.Act(0, 1).Wait(tm.TRCD).WrRow(0, burstWords(9), tm.TCCD)
	if _, err := NewExecutor(m2).Run(b2.Program()); err == nil {
		t.Error("burst beyond ColumnsPerRow succeeded")
	}

	// Read burst before tRCD.
	m3 := burstModule(t, false)
	b3 := NewBuilder(tm.TCK)
	b3.Act(0, 1).RdRow(0, 4, tm.TCCD)
	if _, err := NewExecutor(m3).Run(b3.Program()); err == nil {
		t.Error("burst read before tRCD succeeded")
	}

	// Zero-length bursts are no-ops.
	m4 := burstModule(t, false)
	b4 := NewBuilder(tm.TCK)
	b4.Act(0, 1).Wait(tm.TRCD).WrRow(0, nil, tm.TCCD).RdRow(0, 0, tm.TCCD).
		Wait(tm.TRAS).Pre(0).Wait(tm.TRP)
	res, err := NewExecutor(m4).Run(b4.Program())
	if err != nil {
		t.Fatalf("zero-length bursts: %v", err)
	}
	if len(res.Reads) != 0 {
		t.Fatalf("zero-length read burst returned %d beats", len(res.Reads))
	}
}

// countingDisturber counts Disturb calls and flips nothing.
type countingDisturber struct{ calls int }

func (c *countingDisturber) Disturb(dram.DisturbContext) (int, []uint64) {
	c.calls++
	return 0, nil
}

// TestRunIntoSettlesOpenRow: a program that ends with a disturbed row
// still open (or aborts with it open) has the row's deferred sense
// applied inside RunInto, so no deferral crosses a program boundary.
func TestRunIntoSettlesOpenRow(t *testing.T) {
	for _, abort := range []bool{false, true} {
		cd := &countingDisturber{}
		m, err := dram.NewModule(dram.ModuleConfig{
			Geometry:  burstGeometries[0],
			Timing:    dram.DDR4Timing(),
			Disturber: cd,
		})
		if err != nil {
			t.Fatal(err)
		}
		tm := m.Timing()
		ex := NewExecutor(m)
		hb := NewBuilder(tm.TCK)
		hb.Hammer(0, []int{4, 6}, 100, tm.TRAS, tm.TRP)
		if _, err := ex.Run(hb.Program()); err != nil {
			t.Fatal(err)
		}
		cd.calls = 0
		b := NewBuilder(tm.TCK)
		b.Act(0, 5)
		if abort {
			b.Rd(0, 0) // before tRCD: the program fails with row 5 open
		}
		_, err = ex.Run(b.Program())
		if abort != (err != nil) {
			t.Fatalf("abort=%v: Run error = %v", abort, err)
		}
		if cd.calls != 1 {
			t.Fatalf("abort=%v: %d Disturb calls by the time Run returned, want 1", abort, cd.calls)
		}
		if m.ActiveRow(0) != m.Remap().ToPhysical(5) {
			t.Fatalf("abort=%v: row 5 should still be open", abort)
		}
	}
}

// TestCmpRowMatchesRdRow: a KCmpRow compare-read is timed, checked,
// counted and traced exactly like a KRdRow read burst over the same
// columns, and Result.Differs is what comparing the read beats with
// the expected ones gives — for 64-bit and 16-bit beats, ECC on and
// off, matching and mismatching expectations. RunInto clears Differs
// for every program.
func TestCmpRowMatchesRdRow(t *testing.T) {
	for _, geo := range burstGeometries {
		for _, ecc := range []bool{false, true} {
			for _, mismatch := range []bool{false, true} {
				name := fmt.Sprintf("beat=%d/ecc=%v/mismatch=%v", geo.Chips*geo.ChipWidth, ecc, mismatch)
				t.Run(name, func(t *testing.T) {
					words := burstWords(8)
					if geo.Chips*geo.ChipWidth < 64 {
						for i := range words {
							words[i] &= 1<<(geo.Chips*geo.ChipWidth) - 1
						}
					}
					want := append([]uint64(nil), words...)
					if mismatch {
						want[3] ^= 1 << 2
					}
					run := func(cmp bool) (*Result, dram.Stats, *Executor) {
						m := burstModuleGeo(t, geo, ecc)
						tm := m.Timing()
						b := NewBuilder(tm.TCK)
						b.Act(0, 5).Wait(tm.TRCD).WrRow(0, words, tm.TCCD).Wait(tm.TRAS).Pre(0).Wait(tm.TRP)
						b.Act(0, 5).Wait(tm.TRCD)
						if cmp {
							b.CmpRow(0, want, tm.TCCD)
						} else {
							b.RdRow(0, len(want), tm.TCCD)
						}
						b.Wait(tm.TRAS).Pre(0).Wait(tm.TRP)
						ex := NewExecutor(m)
						ex.SetTrace(true)
						res, err := ex.Run(b.Program())
						if err != nil {
							t.Fatal(err)
						}
						return res, m.Stats(), ex
					}
					rd, rdStats, _ := run(false)
					cmp, cmpStats, ex := run(true)
					if cmp.Differs != !reflect.DeepEqual(rd.Reads, want) || cmp.Differs != mismatch {
						t.Fatalf("Differs = %v; reads %#x, want %#x", cmp.Differs, rd.Reads, want)
					}
					if cmp.End != rd.End || cmpStats != rdStats || !reflect.DeepEqual(cmp.Trace, rd.Trace) {
						t.Fatalf("compare-read diverged from the read burst:\nend %d vs %d\nstats %+v\nvs    %+v\ntrace %v\nvs    %v",
							cmp.End, rd.End, cmpStats, rdStats, cmp.Trace, rd.Trace)
					}
					if len(cmp.Reads) != 0 {
						t.Fatalf("compare-read returned %d beats", len(cmp.Reads))
					}
					var again Result
					again.Differs = true
					if err := ex.RunInto(NewBuilder(ex.tck).Wait(ex.tck).View(), &again); err != nil || again.Differs {
						t.Fatalf("RunInto kept Differs = %v (err %v) across programs", again.Differs, err)
					}
				})
			}
		}
	}
}
