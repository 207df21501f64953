package dram

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// probingRecorder is a recordingDisturber that also answers existence
// queries (FlipProber), consistently with its Disturb.
type probingRecorder struct {
	*recordingDisturber
	anyCalls int
}

func (p *probingRecorder) DisturbAny(DisturbContext) bool {
	p.anyCalls++
	return !p.quiet
}

// cmpCase is one compare-read scenario.
type cmpCase struct {
	name  string
	ecc   bool
	ret   *RetentionConfig
	hold  Picos
	quiet bool // the victim's disturbance flips nothing
	probe bool // the Disturber is a FlipProber
	bad   bool // want differs from what was written
	// fast: the compare is answered by the prober, without sensing.
	fast bool
}

var decayRetention = RetentionConfig{MedianSeconds: 2, Sigma: 0.5, WeakMedianSeconds: 1, TempCoeffPerC: 0.069}

var cmpCases = []cmpCase{
	{name: "flips", probe: true, fast: true},
	{name: "quiet", probe: true, quiet: true, fast: true},
	{name: "want mismatch", probe: true, bad: true},
	{name: "want mismatch quiet", probe: true, bad: true, quiet: true},
	{name: "ecc", probe: true, ecc: true},
	{name: "ecc quiet", probe: true, ecc: true, quiet: true},
	{name: "retention decay", probe: true, quiet: true, ret: &decayRetention, hold: 30 * 1000 * Millisecond},
	{name: "no prober", probe: false},
	{name: "no prober quiet", probe: false, quiet: true},
}

// setup builds the deferred-sense setup for the case: the victim open
// with a pending disturbance.
func (c cmpCase) setup(t *testing.T) (*senseSetup, *probingRecorder) {
	t.Helper()
	rec := &recordingDisturber{quiet: c.quiet}
	var dist Disturber = rec
	var pr *probingRecorder
	if c.probe {
		pr = &probingRecorder{recordingDisturber: rec}
		dist = pr
	}
	return newSenseSetupOn(t, c.ecc, c.ret, c.hold, rec, dist), pr
}

// want is the expected row the case compares against.
func (c cmpCase) want() []uint64 {
	w := senseWords(senseVictim)
	if c.bad {
		w[5] ^= 1 << 9
	}
	return w
}

// bankTiming is a bank's column-command bookkeeping.
func bankTiming(b *bankState) [6]any {
	return [6]any{b.lastRdAt, b.lastColAt, b.everRd, b.everCol, b.senseDue, b.activeRow}
}

// TestCmpRowBulkMatchesReadCompare: a compare-read answers exactly what
// a read burst followed by a comparison with want answers — with and
// without a FlipProber, with on-die ECC on, after retention decay and
// when want mismatches the row — and leaves the same bank timing,
// ledger and stats (FlipsInjected aside) as the read burst. Only the
// prober's fast path skips sensing; everything else senses in full.
func TestCmpRowBulkMatchesReadCompare(t *testing.T) {
	for _, c := range cmpCases {
		t.Run(c.name, func(t *testing.T) {
			cmp, pr := c.setup(t)
			ref, _ := c.setup(t)
			if c.ret != nil && cmp.m.Stats().RetentionFlips == cmp.base.RetentionFlips {
				t.Fatal("the victim's ACT applied no retention decay; case is vacuous")
			}
			tm := cmp.m.Timing()
			cmp.d.step(tm.TRCD)
			ref.d.step(tm.TRCD)
			want := c.want()
			differs, err := cmp.m.CmpRowBulk(0, want, tm.TCCD, cmp.d.now)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ref.m.RdRowBulk(0, len(want), tm.TCCD, ref.d.now, nil)
			if err != nil {
				t.Fatal(err)
			}
			if wantDiffers := !reflect.DeepEqual(got, want); differs != wantDiffers {
				t.Fatalf("CmpRowBulk = %v, read-and-compare %v", differs, wantDiffers)
			}
			if c.quiet == differs && !c.bad && c.ret == nil {
				t.Fatalf("CmpRowBulk = %v with a disturber quiet=%v", differs, c.quiet)
			}
			if fast := pr != nil && pr.anyCalls > 0; fast != c.fast {
				t.Fatalf("answered by the prober: %v, want %v", fast, c.fast)
			}
			if c.fast && len(cmp.rec.calls) != 0 {
				t.Fatalf("fast path made %d Disturb calls", len(cmp.rec.calls))
			}
			if !c.fast && !reflect.DeepEqual(cmp.rec.calls, ref.rec.calls) {
				t.Fatal("sensing compare-read made different Disturb calls than the read burst")
			}
			cb, rb := cmp.m.banks[0], ref.m.banks[0]
			if g, w := bankTiming(cb), bankTiming(rb); g != w {
				t.Fatalf("bank timing %v, read burst %v", g, w)
			}
			if !cb.peek(senseVictim).ledger.Empty() {
				t.Fatal("compare-read left the victim's ledger unreset")
			}
			gs, rs := cmp.m.Stats(), ref.m.Stats()
			if c.fast {
				gs.FlipsInjected = rs.FlipsInjected
			}
			if gs != rs {
				t.Fatalf("stats %+v, read burst %+v", gs, rs)
			}
			stale := cb.peek(senseVictim).stale
			if stale != (c.fast && differs) {
				t.Fatalf("victim stale = %v after a compare-read answering %v (fast %v)", stale, differs, c.fast)
			}
			if !stale {
				if !reflect.DeepEqual(cmp.victimData(), ref.victimData()) {
					t.Fatal("compare-read left the victim's words different from the read burst's")
				}
			}
			// A column command one tick early fails the same tCCD check.
			early := cmp.d.now + Picos(len(want))*tm.TCCD - 1
			_, errC := cmp.m.RdRowBulk(0, 1, tm.TCCD, early, nil)
			_, errR := ref.m.RdRowBulk(0, 1, tm.TCCD, early, nil)
			if errC == nil || errC.Error() != errR.Error() {
				t.Fatalf("read one tick inside tCCD after the compare-read: %v; after the read burst: %v", errC, errR)
			}
		})
	}
}

// staleSetup returns a module whose victim a compare-read left stale
// and open.
func staleSetup(t *testing.T) *senseSetup {
	t.Helper()
	s, _ := cmpCase{probe: true, fast: true}.setup(t)
	tm := s.m.Timing()
	s.d.step(tm.TRCD)
	differs, err := s.m.CmpRowBulk(0, senseWords(senseVictim), tm.TCCD, s.d.now)
	if err != nil || !differs {
		t.Fatalf("compare-read = %v, %v; want a detected flip", differs, err)
	}
	s.d.step(8 * tm.TCCD)
	return s
}

// mustPanicStale runs f and requires the stale-row panic naming the
// victim.
func mustPanicStale(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		msg := fmt.Sprint(r)
		if r == nil || !strings.Contains(msg, fmt.Sprintf("row %d is stale", senseVictim)) {
			t.Fatalf("recovered %v, want the stale-row panic naming row %d", r, senseVictim)
		}
	}()
	f()
}

// TestStaleRowGuard: every access to a stale row's words panics — a
// read, a single write, a partial write burst, a read burst, another
// compare-read, a peek, a neighbor's sense that would couple to it,
// and a re-activation followed by a read — while precharging it,
// peeking its ledger, a full-row write burst (which clears the mark)
// and Reset (which discards it) are allowed.
func TestStaleRowGuard(t *testing.T) {
	forbidden := []struct {
		name string
		run  func(s *senseSetup)
	}{
		{"RD", func(s *senseSetup) { s.m.Exec(Command{Op: OpRd, Bank: 0, Col: 1}, s.d.now) }},
		{"WR", func(s *senseSetup) { s.m.Exec(Command{Op: OpWr, Bank: 0, Col: 1, Data: 3}, s.d.now) }},
		{"partial WrRowBulk", func(s *senseSetup) { s.m.WrRowBulk(0, burstPayload(7), s.m.Timing().TCCD, s.d.now) }},
		{"RdRowBulk", func(s *senseSetup) { s.m.RdRowBulk(0, 8, s.m.Timing().TCCD, s.d.now, nil) }},
		{"CmpRowBulk", func(s *senseSetup) { s.m.CmpRowBulk(0, senseWords(senseVictim), s.m.Timing().TCCD, s.d.now) }},
		{"PeekRow", func(s *senseSetup) { s.m.PeekRow(0, senseVictim) }},
		{"neighbor sense", func(s *senseSetup) {
			tm := s.m.Timing()
			s.d.step(tm.TRAS)
			s.d.must(Command{Op: OpPre, Bank: 0})
			s.d.step(tm.TRC)
			s.d.must(Command{Op: OpAct, Bank: 0, Row: senseVictim + 1})
			s.d.step(tm.TRCD)
			s.m.Exec(Command{Op: OpRd, Bank: 0, Col: 0}, s.d.now)
		}},
		{"re-activate and read", func(s *senseSetup) {
			tm := s.m.Timing()
			s.d.step(tm.TRAS)
			s.d.must(Command{Op: OpPre, Bank: 0})
			s.d.step(tm.TRC)
			s.d.must(Command{Op: OpAct, Bank: 0, Row: senseVictim})
			s.d.step(tm.TRCD)
			s.m.Exec(Command{Op: OpRd, Bank: 0, Col: 0}, s.d.now)
		}},
	}
	for _, f := range forbidden {
		t.Run(f.name, func(t *testing.T) {
			s := staleSetup(t)
			mustPanicStale(t, func() { f.run(s) })
		})
	}

	t.Run("full-row write clears", func(t *testing.T) {
		s := staleSetup(t)
		tm := s.m.Timing()
		if l := s.m.PeekLedger(0, senseVictim); !l.Empty() {
			t.Fatalf("stale victim's ledger %+v, want reset", l)
		}
		s.d.step(tm.TRAS)
		s.d.must(Command{Op: OpPre, Bank: 0})
		s.d.step(tm.TRC)
		s.d.must(Command{Op: OpAct, Bank: 0, Row: senseVictim})
		s.d.step(tm.TRCD)
		words := burstPayload(8)
		if err := s.m.WrRowBulk(0, words, tm.TCCD, s.d.now); err != nil {
			t.Fatal(err)
		}
		if got := s.m.PeekRow(0, senseVictim); !reflect.DeepEqual(got, words) {
			t.Fatalf("row after the full-row write = %#x, want %#x", got, words)
		}
	})
	t.Run("Reset clears", func(t *testing.T) {
		s := staleSetup(t)
		s.m.Reset()
		if got := s.m.PeekRow(0, senseVictim); got != nil {
			t.Fatalf("reset module still holds the victim: %#x", got)
		}
		if n := s.m.banks[0].staleRows; n != 0 {
			t.Fatalf("%d stale rows after Reset", n)
		}
	})
}
