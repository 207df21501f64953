package dram

// Timing holds the subset of JEDEC timing parameters the study
// exercises. All values are minimums unless noted.
type Timing struct {
	// TCK is the command-bus granularity SoftMC can issue at
	// (1.25 ns for the DDR4 Alveo setup, 2.5 ns for DDR3 ML605).
	TCK Picos
	// TRCD: ACT to first RD/WR to the same bank.
	TRCD Picos
	// TRAS: ACT to PRE of the same bank (minimum row-open time).
	TRAS Picos
	// TRP: PRE to next ACT of the same bank.
	TRP Picos
	// TRC: ACT to ACT of the same bank (>= TRAS+TRP).
	TRC Picos
	// TCCD: column command to column command.
	TCCD Picos
	// TRTP: RD to PRE of the same bank.
	TRTP Picos
	// TWR: end of WR to PRE of the same bank (write recovery).
	TWR Picos
	// TRRD: ACT to ACT across banks.
	TRRD Picos
	// TRFC: REF to any command.
	TRFC Picos
	// TREFW: the refresh window within which every row must be
	// refreshed to guarantee retention (64 ms at <= 85C).
	TREFW Picos
}

// DDR4Timing returns DDR4 timings consistent with the tested modules:
// the paper's baseline aggressor on-time is tRAS = 34.5 ns and
// off-time is tRP = 16.5 ns. The controller clock is 1.5 ns — the
// coarsest grid containing every aggressor-time test point of the
// study (34.5+30k ns on, 16.5+6k ns off); the real SoftMC DDR4 port
// offers 1.25 ns, which cannot express 34.5 ns exactly.
func DDR4Timing() Timing {
	return Timing{
		TCK:   PicosFromNs(1.5),
		TRCD:  PicosFromNs(13.75),
		TRAS:  PicosFromNs(34.5),
		TRP:   PicosFromNs(16.5),
		TRC:   PicosFromNs(51.0),
		TCCD:  PicosFromNs(5.0),
		TRTP:  PicosFromNs(7.5),
		TWR:   PicosFromNs(15.0),
		TRRD:  PicosFromNs(5.0),
		TRFC:  PicosFromNs(350.0),
		TREFW: 64 * Millisecond,
	}
}

// DDR3Timing returns DDR3-1600-class timings (SoftMC ML605 setup).
func DDR3Timing() Timing {
	return Timing{
		TCK:   PicosFromNs(2.5),
		TRCD:  PicosFromNs(13.75),
		TRAS:  PicosFromNs(35.0),
		TRP:   PicosFromNs(13.75),
		TRC:   PicosFromNs(48.75),
		TCCD:  PicosFromNs(5.0),
		TRTP:  PicosFromNs(7.5),
		TWR:   PicosFromNs(15.0),
		TRRD:  PicosFromNs(6.0),
		TRFC:  PicosFromNs(260.0),
		TREFW: 64 * Millisecond,
	}
}

// Validate reports whether the timing set is self-consistent.
func (t Timing) Validate() error {
	if t.TCK <= 0 {
		return &ProtocolError{Msg: "non-positive tCK"}
	}
	if t.TRC < t.TRAS+t.TRP {
		return &ProtocolError{Msg: "tRC < tRAS + tRP"}
	}
	for _, p := range []Picos{t.TRCD, t.TRAS, t.TRP, t.TCCD, t.TRTP, t.TWR, t.TRRD, t.TRFC, t.TREFW} {
		if p <= 0 {
			return &ProtocolError{Msg: "non-positive timing parameter"}
		}
	}
	return nil
}
