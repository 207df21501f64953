package dram

import (
	"reflect"
	"testing"
)

// senseCall is one recorded Disturb call: deep copies of its context
// and the mask it returned.
type senseCall struct {
	Bank, Row      int
	Ledger         RowLedger
	Data, Up, Down []uint64
	flips          int
	mask           []uint64
}

// recordingDisturber records every call's context and flips a fixed,
// row- and ledger-dependent set of bits, or nothing when quiet.
type recordingDisturber struct {
	calls []senseCall
	quiet bool
}

func (r *recordingDisturber) Disturb(ctx DisturbContext) (int, []uint64) {
	call := senseCall{
		Bank: ctx.Bank, Row: ctx.Row, Ledger: *ctx.Ledger,
		Data: clone(ctx.Data), Up: clone(ctx.Up), Down: clone(ctx.Down),
	}
	if !r.quiet {
		call.mask = make([]uint64, len(ctx.Data))
		for i := range call.mask {
			call.mask[i] = uint64(1)<<uint((ctx.Row+i)%64) | uint64(1)<<uint(ctx.Ledger.Total()%64)
			for w := call.mask[i]; w != 0; w &= w - 1 {
				call.flips++
			}
		}
	}
	r.calls = append(r.calls, call)
	return call.flips, call.mask
}

func clone(w []uint64) []uint64 {
	if w == nil {
		return nil
	}
	return append([]uint64(nil), w...)
}

// senseVictim is the disturbed row of the deferred-sense tests; rows
// senseVictim±1 hammer it.
const senseVictim = 10

// senseSetup is a module whose bank 0 holds senseVictim and both
// neighbours written with distinct data, with senseVictim's ledger
// non-empty from hammering, and senseVictim just activated. want is
// the context an eager sense at that activation would have handed the
// Disturber; base is the module's stats just before that activation.
type senseSetup struct {
	m    *Module
	d    *driver
	rec  *recordingDisturber
	want senseCall
	base Stats
}

// newSenseSetup builds the setup; hold is idle time between writing
// the rows and hammering (long holds expose retention decay at the
// victim's activation).
func newSenseSetup(t *testing.T, ecc bool, ret *RetentionConfig, hold Picos) *senseSetup {
	t.Helper()
	rec := &recordingDisturber{}
	return newSenseSetupOn(t, ecc, ret, hold, rec, rec)
}

// newSenseSetupOn is newSenseSetup on the module Disturber dist, which
// records through rec.
func newSenseSetupOn(t *testing.T, ecc bool, ret *RetentionConfig, hold Picos, rec *recordingDisturber, dist Disturber) *senseSetup {
	t.Helper()
	m, err := NewModule(ModuleConfig{
		Geometry:  Geometry{Banks: 2, RowsPerBank: 64, SubarrayRows: 64, Chips: 8, ChipWidth: 8, ColumnsPerRow: 8},
		Timing:    DDR4Timing(),
		Disturber: dist,
		OnDieECC:  ecc,
		Retention: ret,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &driver{m: m, t: t}
	tm := m.Timing()
	for _, row := range []int{senseVictim - 1, senseVictim, senseVictim + 1} {
		for col, w := range senseWords(row) {
			d.openWriteClose(0, row, col, w)
		}
	}
	d.step(hold)
	for i := 0; i < 3; i++ {
		for _, agg := range []int{senseVictim - 1, senseVictim + 1} {
			d.step(tm.TRC)
			d.must(Command{Op: OpAct, Bank: 0, Row: agg})
			d.step(tm.TRAS)
			d.must(Command{Op: OpPre, Bank: 0})
		}
	}
	rec.calls = nil
	base := m.Stats()
	d.step(tm.TRC)
	d.must(Command{Op: OpAct, Bank: 0, Row: senseVictim})
	if len(rec.calls) != 0 {
		t.Fatalf("ACT made %d Disturb calls; want the sense deferred", len(rec.calls))
	}
	b := m.banks[0]
	return &senseSetup{m: m, d: d, rec: rec, base: base, want: senseCall{
		Bank: 0, Row: senseVictim, Ledger: b.peek(senseVictim).ledger,
		Data: clone(b.dataIfPresent(senseVictim)),
		Up:   clone(b.dataIfPresent(senseVictim - 1)), Down: clone(b.dataIfPresent(senseVictim + 1)),
	}}
}

// senseWords is what the setup writes to a row, one word per column.
func senseWords(row int) []uint64 {
	w := make([]uint64, 8)
	for col := range w {
		w[col] = uint64(row)<<32 | uint64(col)*0x1111
	}
	return w
}

// eager is the victim's stored data had the sense run at the ACT.
func (s *senseSetup) eager() []uint64 {
	out := clone(s.want.Data)
	ApplyFlipMask(out, s.rec.calls[0].mask)
	return out
}

// checkOneCall requires exactly one Disturb call, made with the
// context the activation saw.
func (s *senseSetup) checkOneCall(t *testing.T) {
	t.Helper()
	if len(s.rec.calls) != 1 {
		t.Fatalf("%d Disturb calls, want 1", len(s.rec.calls))
	}
	got := s.rec.calls[0]
	got.flips, got.mask = 0, nil
	if !reflect.DeepEqual(got, s.want) {
		t.Fatalf("deferred Disturb context differs from the ACT snapshot:\ngot  %+v\nwant %+v", got, s.want)
	}
}

func (s *senseSetup) victimData() []uint64 { return clone(s.m.banks[0].peek(senseVictim).data) }

func TestFullRowBurstDropsDeferredSense(t *testing.T) {
	for _, ecc := range []bool{false, true} {
		s := newSenseSetup(t, ecc, nil, 0)
		tm := s.m.Timing()
		words := burstPayload(8)
		s.d.step(tm.TRCD)
		if err := s.m.WrRowBulk(0, words, tm.TCCD, s.d.now); err != nil {
			t.Fatal(err)
		}
		if len(s.rec.calls) != 0 {
			t.Fatalf("ecc=%v: full-row burst made %d Disturb calls, want 0", ecc, len(s.rec.calls))
		}
		if got := s.victimData(); !reflect.DeepEqual(got, words) {
			t.Fatalf("ecc=%v: row = %#x, want the written words", ecc, got)
		}
		if l := s.m.PeekLedger(0, senseVictim); !l.Empty() {
			t.Fatalf("ecc=%v: ledger %+v not reset", ecc, l)
		}
		if ecc {
			for col, w := range words {
				if got, want := s.m.banks[0].peek(senseVictim).check[col], ECCEncode(w); got != want {
					t.Fatalf("check byte %d = %#x, want %#x", col, got, want)
				}
			}
		}
		s.d.step(Picos(8)*tm.TCCD + tm.TRAS)
		s.d.must(Command{Op: OpPre, Bank: 0})
		if len(s.rec.calls) != 0 || s.m.Stats().FlipsInjected != s.base.FlipsInjected {
			t.Fatalf("ecc=%v: PRE after a full-row burst sensed the row (%d calls)", ecc, len(s.rec.calls))
		}
	}
}

// burstPayload is n distinct column words.
func burstPayload(n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = 0xa5a5_0000_0000_0000 | uint64(i)*0x0102_0304
	}
	return w
}

// TestDeferredSenseResolutionPoints drives every command that can
// observe a deferred sense and requires exactly one Disturb call, made
// with the inputs the ACT saw, leaving the row as eager sensing would.
func TestDeferredSenseResolutionPoints(t *testing.T) {
	cases := []struct {
		name string
		// run issues the resolving command and returns the victim row
		// contents eager sensing would have produced afterwards.
		run func(t *testing.T, s *senseSetup) []uint64
	}{
		{"RD", func(t *testing.T, s *senseSetup) []uint64 {
			s.d.step(s.m.Timing().TRCD)
			v := s.d.must(Command{Op: OpRd, Bank: 0, Col: 3})
			if want := s.eager()[3]; v != want {
				t.Fatalf("RD returned %#x, want %#x", v, want)
			}
			return s.eager()
		}},
		{"WR", func(t *testing.T, s *senseSetup) []uint64 {
			s.d.step(s.m.Timing().TRCD)
			s.d.must(Command{Op: OpWr, Bank: 0, Col: 2, Data: 0x77})
			want := s.eager()
			want[2] = 0x77
			return want
		}},
		{"partial WrRowBulk", func(t *testing.T, s *senseSetup) []uint64 {
			tm := s.m.Timing()
			s.d.step(tm.TRCD)
			words := burstPayload(5)
			if err := s.m.WrRowBulk(0, words, tm.TCCD, s.d.now); err != nil {
				t.Fatal(err)
			}
			want := s.eager()
			copy(want, words)
			return want
		}},
		{"RdRowBulk", func(t *testing.T, s *senseSetup) []uint64 {
			tm := s.m.Timing()
			s.d.step(tm.TRCD)
			got, err := s.m.RdRowBulk(0, 8, tm.TCCD, s.d.now, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, s.eager()) {
				t.Fatalf("RdRowBulk = %#x, want %#x", got, s.eager())
			}
			return s.eager()
		}},
		{"PRE", func(t *testing.T, s *senseSetup) []uint64 {
			s.d.step(s.m.Timing().TRAS)
			s.d.must(Command{Op: OpPre, Bank: 0})
			return s.eager()
		}},
		{"PREA", func(t *testing.T, s *senseSetup) []uint64 {
			s.d.step(s.m.Timing().TRAS)
			s.d.must(Command{Op: OpPreAll})
			return s.eager()
		}},
		{"PeekRow", func(t *testing.T, s *senseSetup) []uint64 {
			if got := s.m.PeekRow(0, senseVictim); !reflect.DeepEqual(got, s.eager()) {
				t.Fatalf("PeekRow = %#x, want %#x", got, s.eager())
			}
			return s.eager()
		}},
		{"PeekLedger", func(t *testing.T, s *senseSetup) []uint64 {
			if l := s.m.PeekLedger(0, senseVictim); !l.Empty() {
				t.Fatalf("PeekLedger = %+v, want the sensed (empty) ledger", l)
			}
			return s.eager()
		}},
		{"Settle", func(t *testing.T, s *senseSetup) []uint64 {
			s.m.Settle()
			return s.eager()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSenseSetup(t, false, nil, 0)
			want := tc.run(t, s)
			s.checkOneCall(t)
			if got := s.victimData(); !reflect.DeepEqual(got, want) {
				t.Fatalf("victim row = %#x, want %#x", got, want)
			}
			if !s.m.banks[0].peek(senseVictim).ledger.Empty() {
				t.Fatal("ledger not reset by the resolved sense")
			}
			if got, want := s.m.Stats().FlipsInjected-s.base.FlipsInjected, int64(s.rec.calls[0].flips); got != want {
				t.Fatalf("FlipsInjected grew by %d, want %d", got, want)
			}
			// A second observation senses nothing new.
			s.m.Settle()
			if len(s.rec.calls) != 1 {
				t.Fatalf("%d Disturb calls after a second settle, want 1", len(s.rec.calls))
			}
		})
	}
}

// TestPeekOtherRowKeepsSenseDeferred: peeking a row other than the
// open one observes nothing the deferred sense would change.
func TestPeekOtherRowKeepsSenseDeferred(t *testing.T) {
	s := newSenseSetup(t, false, nil, 0)
	if got := s.m.PeekRow(0, senseVictim-1); !reflect.DeepEqual(got, s.want.Up) {
		t.Fatalf("PeekRow(neighbour) = %#x, want %#x", got, s.want.Up)
	}
	if len(s.rec.calls) != 0 {
		t.Fatalf("peeking a neighbour made %d Disturb calls", len(s.rec.calls))
	}
	s.m.Settle()
	s.checkOneCall(t)
}

// TestDeferredSenseKeepsRetentionFlips: retention decay is applied at
// the ACT, before the deferred disturbance sees the row, whether that
// disturbance is later resolved or dropped — so RetentionFlips does
// not depend on the follow-up.
func TestDeferredSenseKeepsRetentionFlips(t *testing.T) {
	cfg := RetentionConfig{MedianSeconds: 2, Sigma: 0.5, WeakMedianSeconds: 1, TempCoeffPerC: 0.069}
	run := func(fullWrite bool) Stats {
		// The victim sits unrefreshed for 30 s before its activation.
		s := newSenseSetup(t, false, &cfg, 30*1000*Millisecond)
		atAct := s.m.Stats().RetentionFlips
		if atAct == s.base.RetentionFlips {
			t.Fatal("the victim's ACT applied no retention decay; test is vacuous")
		}
		tm := s.m.Timing()
		s.d.step(tm.TRCD)
		if fullWrite {
			if err := s.m.WrRowBulk(0, burstPayload(8), tm.TCCD, s.d.now); err != nil {
				t.Fatal(err)
			}
		} else {
			s.d.must(Command{Op: OpRd, Bank: 0, Col: 0})
			s.checkOneCall(t) // the disturbance saw the decayed row
		}
		st := s.m.Stats()
		if st.RetentionFlips != atAct {
			t.Fatalf("fullWrite=%v: RetentionFlips %d after the ACT, %d after the follow-up", fullWrite, atAct, st.RetentionFlips)
		}
		return st
	}
	read, written := run(false), run(true)
	if read.RetentionFlips != written.RetentionFlips {
		t.Fatalf("RetentionFlips: read %d, full-row write %d", read.RetentionFlips, written.RetentionFlips)
	}
}
