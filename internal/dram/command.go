package dram

import "fmt"

// Picos is a point in time or a duration, in picoseconds. All DRAM
// timings are integral picosecond counts, which keeps command-to-
// command arithmetic exact at SoftMC's 1.25 ns / 2.5 ns granularity.
type Picos int64

// Common conversion helpers.
const (
	Nanosecond  Picos = 1000
	Microsecond Picos = 1000 * Nanosecond
	Millisecond Picos = 1000 * Microsecond
)

// Nanoseconds returns the duration as a float64 nanosecond count.
func (p Picos) Nanoseconds() float64 { return float64(p) / 1000 }

// PicosFromNs converts a float nanosecond value to Picos, rounding to
// the nearest picosecond.
func PicosFromNs(ns float64) Picos {
	if ns >= 0 {
		return Picos(ns*1000 + 0.5)
	}
	return Picos(ns*1000 - 0.5)
}

// Op is a DRAM command opcode.
type Op uint8

// The DRAM command set used by the study. RDAP/WRAP (auto-precharge)
// are modeled as RD/WR followed by PRE at tRTP/tWR.
const (
	OpNop Op = iota
	OpAct
	OpPre
	OpPreAll
	OpRd
	OpWr
	OpRef
)

// String returns the JEDEC mnemonic of the opcode.
func (o Op) String() string {
	switch o {
	case OpNop:
		return "NOP"
	case OpAct:
		return "ACT"
	case OpPre:
		return "PRE"
	case OpPreAll:
		return "PREA"
	case OpRd:
		return "RD"
	case OpWr:
		return "WR"
	case OpRef:
		return "REF"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// Command is one DRAM bus command. Row addresses are logical
// (memory-controller visible); the module applies its internal
// remapping. Data is used by WR only and must hold ChipWidth*Chips
// bits (one burst beat; the simulator models a single-beat burst).
type Command struct {
	Op   Op
	Bank int
	Row  int
	Col  int
	Data uint64
}

// String renders the command for traces and error messages.
func (c Command) String() string {
	switch c.Op {
	case OpAct:
		return fmt.Sprintf("ACT b%d r%d", c.Bank, c.Row)
	case OpPre:
		return fmt.Sprintf("PRE b%d", c.Bank)
	case OpPreAll:
		return "PREA"
	case OpRd:
		return fmt.Sprintf("RD b%d c%d", c.Bank, c.Col)
	case OpWr:
		return fmt.Sprintf("WR b%d c%d %#x", c.Bank, c.Col, c.Data)
	case OpRef:
		return "REF"
	default:
		return c.Op.String()
	}
}

// TimingError reports a violated timing parameter.
type TimingError struct {
	Param    string
	Required Picos
	Actual   Picos
	Cmd      Command
	At       Picos
}

func (e *TimingError) Error() string {
	return fmt.Sprintf("dram: %s violation at t=%dps for %s: need %dps, got %dps",
		e.Param, int64(e.At), e.Cmd, int64(e.Required), int64(e.Actual))
}

// ProtocolError reports an illegal command for the current bank state.
type ProtocolError struct {
	Msg string
	Cmd Command
	At  Picos
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("dram: protocol error at t=%dps for %s: %s", int64(e.At), e.Cmd, e.Msg)
}
