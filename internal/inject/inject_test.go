package inject

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rowhammer/internal/dram"
	"rowhammer/internal/softmc"
	"rowhammer/internal/thermal"
)

func TestParseProfiles(t *testing.T) {
	for _, s := range []string{"", "none"} {
		p, err := Parse(s)
		if err != nil || p != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", s, p, err)
		}
	}
	p, err := Parse("chaos+dead=A/0,C/2+seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.CmdErrRate == 0 || len(p.DeadModules) != 2 || p.DeadModules[0] != "A/0" {
		t.Fatalf("merged profile = %+v", p)
	}
	if !p.Active() {
		t.Fatal("merged profile should be active")
	}
	for _, bad := range []string{"bogus", "dead=", "seed=x", "seed=7"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestTransientFaultDecisionsAreDeterministicAndBounded(t *testing.T) {
	p := Transient(5)
	a := p.hitAttempt(p.CmdErrRate, chCmd, "hcfirst/A/0", 1)
	for i := 0; i < 10; i++ {
		if p.hitAttempt(p.CmdErrRate, chCmd, "hcfirst/A/0", 1) != a {
			t.Fatal("fault decision not deterministic")
		}
	}
	// Attempts beyond MaxFaultAttempts always run clean — the
	// convergence guarantee behind the bit-identical invariant.
	for attempt := p.maxFaultAttempts() + 1; attempt < p.maxFaultAttempts()+10; attempt++ {
		if p.hitAttempt(1.0, chCmd, "hcfirst/A/0", attempt) {
			t.Fatalf("attempt %d past MaxFaultAttempts still faulted", attempt)
		}
	}
}

func newTestModule(t *testing.T) *dram.Module {
	t.Helper()
	m, err := dram.NewModule(dram.ModuleConfig{
		Geometry: dram.Geometry{Banks: 2, RowsPerBank: 64, SubarrayRows: 64, Chips: 8, ChipWidth: 8, ColumnsPerRow: 8},
		Timing:   dram.DDR4Timing(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// writeReadProgram builds a timing-legal WR→RD round trip.
func writeReadProgram(tm dram.Timing, data uint64) *softmc.Program {
	b := softmc.NewBuilder(tm.TCK)
	b.Act(0, 5).Wait(tm.TRCD).
		Wr(0, 3, data).Wait(tm.TRAS).
		Pre(0).Wait(tm.TRP).
		Act(0, 5).Wait(tm.TRCD).
		Rd(0, 3).Wait(tm.TRAS).
		Pre(0)
	return b.Program()
}

func TestWrapDeviceLinkFaultsAreDeterministic(t *testing.T) {
	run := func() error {
		m := newTestModule(t)
		dev := WrapDevice(m, &Profile{Seed: 11, CmdErrRate: 0.5}, 0xabc)
		_, err := softmc.NewExecutorOn(dev).Run(writeReadProgram(m.Timing(), 0x1234))
		return err
	}
	err1, err2 := run(), run()
	if err1 == nil {
		t.Fatal("a 50% link-fault rate over 6 commands should have faulted (seeded draw)")
	}
	if !errors.Is(err1, ErrLinkFault) {
		t.Fatalf("fault should be a link fault, got %v", err1)
	}
	if err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("device faults not reproducible:\n%v\n%v", err1, err2)
	}
}

func TestWrapDeviceCorruptsReadoutsDetectably(t *testing.T) {
	m := newTestModule(t)
	dev := WrapDevice(m, &Profile{Seed: 11, ReadCorruptRate: 1}, 0xabc)
	res, err := softmc.NewExecutorOn(dev).Run(writeReadProgram(m.Timing(), 0x1234))
	if !errors.Is(err, ErrReadCRC) {
		t.Fatalf("want CRC error on readout, got %v", err)
	}
	// The executor stops at the failing read, so the torn beat is not
	// in the results — exactly how a checksummed readback discards it.
	if len(res.Reads) != 0 {
		t.Fatalf("torn readout leaked into results: %#v", res.Reads)
	}
}

// TestWrapDeviceCmpRowMatchesRdRow: a compare-read through the fault
// wrapper advances its operation counter and meets its faults exactly
// as a read burst over the same columns does, so chaos runs see the
// same fault schedule whichever the program issues; without a fault,
// it answers what comparing the read beats answers.
func TestWrapDeviceCmpRowMatchesRdRow(t *testing.T) {
	words := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	faulted := map[bool]int{}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, mismatch := range []bool{false, true} {
			want := append([]uint64(nil), words...)
			if mismatch {
				want[6] ^= 0x40
			}
			run := func(cmp bool) (*softmc.Result, error, uint64) {
				m := newTestModule(t)
				dev := WrapDevice(m, &Profile{Seed: seed, CmdErrRate: 0.05, ReadCorruptRate: 0.05}, 0xabc)
				tm := m.Timing()
				b := softmc.NewBuilder(tm.TCK)
				b.Act(0, 5).Wait(tm.TRCD).WrRow(0, words, tm.TCCD).Wait(tm.TRAS).Pre(0).Wait(tm.TRP)
				b.Act(0, 5).Wait(tm.TRCD)
				if cmp {
					b.CmpRow(0, want, tm.TCCD)
				} else {
					b.RdRow(0, len(want), tm.TCCD)
				}
				b.Wait(tm.TRAS).Pre(0)
				res, err := softmc.NewExecutorOn(dev).Run(b.Program())
				return res, err, dev.(*Device).Ops()
			}
			rd, rdErr, rdOps := run(false)
			cmp, cmpErr, cmpOps := run(true)
			// The executor names the instruction kind; the fault must be
			// the same one.
			if rdOps != cmpOps || fmt.Sprint(rdErr) != strings.Replace(fmt.Sprint(cmpErr), "(cmprow)", "(rdrow)", 1) {
				t.Fatalf("seed %d: read burst %d ops (%v), compare-read %d ops (%v)", seed, rdOps, rdErr, cmpOps, cmpErr)
			}
			if rdErr == nil && cmp.Differs != (mismatch || fmt.Sprint(rd.Reads) != fmt.Sprint(want)) {
				t.Fatalf("seed %d: Differs = %v, reads %v, want %v", seed, cmp.Differs, rd.Reads, want)
			}
			faulted[rdErr != nil]++
		}
	}
	if faulted[true] == 0 || faulted[false] == 0 {
		t.Fatalf("faulted runs %v: the seeds must cover clean and faulted runs", faulted)
	}
}

func TestWrapDeviceInactiveProfilePassesThrough(t *testing.T) {
	m := newTestModule(t)
	if dev := WrapDevice(m, nil, 1); dev != softmc.Device(m) {
		t.Fatal("nil profile should return the device unwrapped")
	}
	dev := WrapDevice(m, &Profile{Seed: 1, CmdErrRate: 0, ReadCorruptRate: 0}, 1)
	res, err := softmc.NewExecutorOn(dev).Run(writeReadProgram(m.Timing(), 0x77))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reads) != 1 || res.Reads[0] != 0x77 {
		t.Fatalf("reads = %#v", res.Reads)
	}
}

func TestDriftHookBreachesGuardbandDeterministically(t *testing.T) {
	run := func(hook func(float64) float64) (float64, error) {
		ch := thermal.NewChamber(1)
		if err := ch.SetAndSettle(70); err != nil {
			t.Fatal(err)
		}
		ch.Disturb = hook
		return ch.HoldWithin(120, 0.5)
	}
	// A healthy chamber holds the study's ±0.5 °C guardband.
	if worst, err := run(nil); err != nil {
		t.Fatalf("healthy chamber left the guardband (worst %.2f): %v", worst, err)
	}
	// A drifting one is detected, and reproducibly so.
	p := &Profile{Seed: 5, DriftRate: 1, DriftW: 60}
	w1, err1 := run(p.DriftHook(0xbeef))
	w2, err2 := run(p.DriftHook(0xbeef))
	if !errors.Is(err1, thermal.ErrGuardband) {
		t.Fatalf("60 W of uncontrolled drift should breach the guardband, got worst %.2f, err %v", w1, err1)
	}
	if err2 == nil || w1 != w2 {
		t.Fatalf("drift not deterministic: worst %.3f vs %.3f", w1, w2)
	}
	if strings.Contains(err1.Error(), "guardband") == false {
		t.Fatalf("error should mention the guardband: %v", err1)
	}
}

func TestLatencyProfileSleepBounded(t *testing.T) {
	p := Latency(3, 50*time.Millisecond)
	if !p.Active() {
		t.Fatal("latency profile should be active")
	}
	if p.LatencySpike != 50*time.Millisecond {
		t.Fatalf("spike = %v", p.LatencySpike)
	}
}
