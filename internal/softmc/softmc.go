// Package softmc implements a SoftMC-style programmable memory
// controller: test programs are sequences of DRAM commands with
// explicit inter-command delays at the controller's clock granularity
// (1.25 ns for the DDR4 infrastructure, 2.5 ns for DDR3). The one loop
// construct is KHammerLoop, SoftMC's hardware LOOP over an ACT…PRE
// block — the mechanism real SoftMC uses to hammer at line rate without
// host interaction — executed analytically. Row-wide column bursts
// (KWrRow, KRdRow, KCmpRow) run as one bulk device call each.
//
// The executor drives a dram.Module command-by-command, so every
// timing and protocol rule is enforced exactly as on the FPGA.
package softmc

import (
	"fmt"
	"slices"

	"rowhammer/internal/dram"
)

// Kind discriminates program instructions.
type Kind uint8

// Instruction kinds.
const (
	// KCmd issues one DRAM command.
	KCmd Kind = iota
	// KWait advances time.
	KWait
	// KHammerLoop repeats ACT(row)…PRE cycles over a row list with
	// fixed on/off times — the SoftMC LOOP construct specialized to
	// hammering, executed analytically (cost independent of count).
	KHammerLoop
	// KWrRow writes one beat per column of the open row, commands
	// spaced Delay apart — equivalent to len(Data) Wr+Wait pairs,
	// executed as one bulk device call.
	KWrRow
	// KRdRow reads Count beats from the open row starting at column 0,
	// commands spaced Delay apart — equivalent to Count Rd+Wait pairs.
	KRdRow
	// KCmpRow is a compare-read: the read burst of KRdRow over
	// len(Data) columns, whose only outcome is whether any beat differs
	// from Data[col] (Result.Differs).
	KCmpRow
)

// Instr is one program instruction.
type Instr struct {
	Kind Kind

	// KCmd.
	Cmd dram.Command

	// KWait: delay before the next instruction.
	Delay dram.Picos

	// KHammerLoop.
	Bank   int
	Rows   []int
	Count  int64
	AggOn  dram.Picos
	AggOff dram.Picos

	// KWrRow: one beat per column; KCmpRow: the expected beat per
	// column (KRdRow uses Count + Delay).
	Data []uint64
}

// Program is an executable SoftMC program.
type Program struct {
	Instrs []Instr
}

// Builder assembles programs with convenience helpers. All times are
// rounded up to the controller clock (tCK).
type Builder struct {
	tck    dram.Picos
	instrs []Instr
	view   Program
}

// NewBuilder returns a Builder for a controller with the given clock
// granularity.
func NewBuilder(tck dram.Picos) *Builder {
	if tck <= 0 {
		panic("softmc: non-positive tCK")
	}
	return &Builder{tck: tck}
}

// Reset truncates the builder's program while keeping the instruction
// buffer's capacity, so hot loops can assemble fresh programs without
// reallocating. Any Program previously returned by View is
// invalidated.
func (b *Builder) Reset() *Builder {
	b.instrs = b.instrs[:0]
	return b
}

// Grow makes room for n more instructions, so the next n appends do
// not reallocate the buffer.
func (b *Builder) Grow(n int) *Builder {
	b.instrs = slices.Grow(b.instrs, n)
	return b
}

// roundUp rounds d up to the clock grid.
func (b *Builder) roundUp(d dram.Picos) dram.Picos {
	if d <= 0 {
		return 0
	}
	r := d % b.tck
	if r == 0 {
		return d
	}
	return d + b.tck - r
}

// Cmd appends a raw command.
func (b *Builder) Cmd(c dram.Command) *Builder {
	b.instrs = append(b.instrs, Instr{Kind: KCmd, Cmd: c})
	return b
}

// Act appends an ACT.
func (b *Builder) Act(bank, row int) *Builder {
	return b.Cmd(dram.Command{Op: dram.OpAct, Bank: bank, Row: row})
}

// Pre appends a PRE.
func (b *Builder) Pre(bank int) *Builder {
	return b.Cmd(dram.Command{Op: dram.OpPre, Bank: bank})
}

// Rd appends a RD.
func (b *Builder) Rd(bank, col int) *Builder {
	return b.Cmd(dram.Command{Op: dram.OpRd, Bank: bank, Col: col})
}

// Wr appends a WR.
func (b *Builder) Wr(bank, col int, data uint64) *Builder {
	return b.Cmd(dram.Command{Op: dram.OpWr, Bank: bank, Col: col, Data: data})
}

// Ref appends a REF.
func (b *Builder) Ref() *Builder { return b.Cmd(dram.Command{Op: dram.OpRef}) }

// Wait appends a delay (rounded up to tCK).
func (b *Builder) Wait(d dram.Picos) *Builder {
	b.instrs = append(b.instrs, Instr{Kind: KWait, Delay: b.roundUp(d)})
	return b
}

// Hammer appends a hardware hammer loop: count rounds of
// ACT(row)+wait(aggOn)+PRE+wait(aggOff) over rows.
func (b *Builder) Hammer(bank int, rows []int, count int64, aggOn, aggOff dram.Picos) *Builder {
	rcopy := make([]int, len(rows))
	copy(rcopy, rows)
	b.instrs = append(b.instrs, Instr{
		Kind: KHammerLoop, Bank: bank, Rows: rcopy, Count: count,
		AggOn: b.roundUp(aggOn), AggOff: b.roundUp(aggOff),
	})
	return b
}

// HammerShared is Hammer without the defensive row-list copy: the
// instruction aliases rows, which the caller must keep unchanged until
// the program has run. Arena-reusing measurement loops use it to stay
// allocation-free.
func (b *Builder) HammerShared(bank int, rows []int, count int64, aggOn, aggOff dram.Picos) *Builder {
	b.instrs = append(b.instrs, Instr{
		Kind: KHammerLoop, Bank: bank, Rows: rows, Count: count,
		AggOn: b.roundUp(aggOn), AggOff: b.roundUp(aggOff),
	})
	return b
}

// WrRow appends a bulk column-write burst to the open row of a bank:
// beat data[col] goes to column col, commands spaced ccd apart
// (rounded up to tCK). It is exactly equivalent to
//
//	for col := range data { b.Wr(bank, col, data[col]).Wait(ccd) }
//
// but executes as one instruction through the device's bulk port. The
// builder copies data.
func (b *Builder) WrRow(bank int, data []uint64, ccd dram.Picos) *Builder {
	dcopy := make([]uint64, len(data))
	copy(dcopy, data)
	b.instrs = append(b.instrs, Instr{Kind: KWrRow, Bank: bank, Data: dcopy, Delay: b.roundUp(ccd)})
	return b
}

// WrRowShared is WrRow without the defensive copy (the aliasing
// contract of HammerShared): data must stay unchanged until the
// program has run.
func (b *Builder) WrRowShared(bank int, data []uint64, ccd dram.Picos) *Builder {
	b.instrs = append(b.instrs, Instr{Kind: KWrRow, Bank: bank, Data: data, Delay: b.roundUp(ccd)})
	return b
}

// RdRow appends a bulk column-read burst: cols beats from columns
// 0..cols-1 of the open row, spaced ccd apart — exactly equivalent to
// the Rd+Wait pair sequence, as one instruction.
func (b *Builder) RdRow(bank, cols int, ccd dram.Picos) *Builder {
	b.instrs = append(b.instrs, Instr{Kind: KRdRow, Bank: bank, Count: int64(cols), Delay: b.roundUp(ccd)})
	return b
}

// CmpRow appends a compare-read burst: columns 0..len(want)-1 of the
// open row, spaced ccd apart, timed and checked exactly like RdRow over
// len(want) columns, whose outcome is only whether some beat differs
// from want[col] (Result.Differs). Like WrRowShared, the instruction
// aliases want, which must stay unchanged until the program has run.
func (b *Builder) CmpRow(bank int, want []uint64, ccd dram.Picos) *Builder {
	b.instrs = append(b.instrs, Instr{Kind: KCmpRow, Bank: bank, Data: want, Delay: b.roundUp(ccd)})
	return b
}

// Program finalizes the builder into a detached copy.
func (b *Builder) Program() *Program {
	p := &Program{Instrs: make([]Instr, len(b.instrs))}
	copy(p.Instrs, b.instrs)
	return p
}

// View returns the current program without copying: it aliases the
// builder's instruction buffer and is valid only until the next
// builder mutation (append or Reset). Use Program for a detached
// copy; View is for run-immediately hot loops.
func (b *Builder) View() *Program {
	b.view.Instrs = b.instrs
	return &b.view
}

// TraceEntry records one issued command for verification (Fig. 6).
type TraceEntry struct {
	At  dram.Picos
	Cmd dram.Command
}

// Result holds a program's outputs.
type Result struct {
	// Reads are the data beats returned by RD commands, in order.
	Reads []uint64
	// Differs reports whether some KCmpRow of the program found a beat
	// differing from its expected one.
	Differs bool
	// End is the time after the last instruction.
	End dram.Picos
	// Trace is populated when the executor traces.
	Trace []TraceEntry
}

// Executor runs programs against one module. Time persists across
// Run calls (like a powered-up board).
type Executor struct {
	mod   *dram.Module
	now   dram.Picos
	tck   dram.Picos
	trace bool
}

// NewExecutor returns an executor clocked at the module timing's tCK.
func NewExecutor(mod *dram.Module) *Executor {
	return &Executor{mod: mod, tck: mod.Timing().TCK}
}

// Reset returns the executor to the state NewExecutor builds for its
// module: time 0 and tracing off. The module itself is not touched.
func (e *Executor) Reset() {
	e.now = 0
	e.trace = false
}

// SetTrace enables or disables command tracing.
func (e *Executor) SetTrace(on bool) { e.trace = on }

// Now returns the executor's current time.
func (e *Executor) Now() dram.Picos { return e.now }

// AdvanceTo moves time forward to at least t.
func (e *Executor) AdvanceTo(t dram.Picos) {
	if t > e.now {
		e.now = t
	}
}

// Run executes a program. On error, execution stops at the offending
// instruction; the partial result is returned with the error.
func (e *Executor) Run(p *Program) (*Result, error) {
	res := &Result{}
	err := e.RunInto(p, res)
	return res, err
}

// RunInto executes a program into a caller-owned result, truncating
// and refilling its Reads/Trace buffers in place — the
// allocation-free variant of Run for hot measurement loops. On error,
// execution stops at the offending instruction; the partial result
// remains in res. Either way the module is settled before RunInto
// returns, so no deferred sensing crosses a program boundary.
func (e *Executor) RunInto(p *Program, res *Result) error {
	res.Reads = res.Reads[:0]
	res.Trace = res.Trace[:0]
	res.Differs = false
	err := e.runInstrs(p.Instrs, res)
	e.mod.Settle()
	res.End = e.now
	return err
}

// runInstrs executes an instruction sequence. justIssued tracks the
// tCK bus slot a command consumes: a Wait directly after a command
// expresses the full command-to-command distance, so that slot is
// credited against it.
func (e *Executor) runInstrs(instrs []Instr, res *Result) error {
	justIssued := false
	for i := range instrs {
		in := &instrs[i]
		switch in.Kind {
		case KCmd:
			if e.trace {
				res.Trace = append(res.Trace, TraceEntry{At: e.now, Cmd: in.Cmd})
			}
			v, err := e.mod.Exec(in.Cmd, e.now)
			if err != nil {
				return fmt.Errorf("softmc: instr %d: %w", i, err)
			}
			if in.Cmd.Op == dram.OpRd {
				res.Reads = append(res.Reads, v)
			}
			e.now += e.tck
			justIssued = true
		case KWait:
			d := in.Delay
			if justIssued {
				d -= e.tck
			}
			if d > 0 {
				e.now += d
			}
			justIssued = false
		case KHammerLoop:
			if e.trace {
				// Trace the loop header only; bodies are bulk.
				res.Trace = append(res.Trace, TraceEntry{At: e.now, Cmd: dram.Command{Op: dram.OpNop}})
			}
			end, err := e.mod.HammerBulk(in.Bank, in.Rows, in.Count, in.AggOn, in.AggOff, e.now)
			if err != nil {
				return fmt.Errorf("softmc: instr %d (hammer): %w", i, err)
			}
			e.now = end
			justIssued = false
		case KWrRow:
			if len(in.Data) == 0 {
				continue
			}
			step := in.Delay
			if step < e.tck {
				step = e.tck
			}
			if e.trace {
				res.Trace = append(res.Trace, TraceEntry{At: e.now, Cmd: dram.Command{Op: dram.OpNop}})
			}
			if err := e.mod.WrRowBulk(in.Bank, in.Data, step, e.now); err != nil {
				return fmt.Errorf("softmc: instr %d (wrrow): %w", i, err)
			}
			e.now += dram.Picos(len(in.Data)) * step
			justIssued = false
		case KRdRow:
			if in.Count == 0 {
				continue
			}
			step := in.Delay
			if step < e.tck {
				step = e.tck
			}
			if e.trace {
				res.Trace = append(res.Trace, TraceEntry{At: e.now, Cmd: dram.Command{Op: dram.OpNop}})
			}
			out, err := e.mod.RdRowBulk(in.Bank, int(in.Count), step, e.now, res.Reads)
			res.Reads = out
			if err != nil {
				return fmt.Errorf("softmc: instr %d (rdrow): %w", i, err)
			}
			e.now += dram.Picos(in.Count) * step
			justIssued = false
		case KCmpRow:
			if len(in.Data) == 0 {
				continue
			}
			step := in.Delay
			if step < e.tck {
				step = e.tck
			}
			if e.trace {
				res.Trace = append(res.Trace, TraceEntry{At: e.now, Cmd: dram.Command{Op: dram.OpNop}})
			}
			differs, err := e.mod.CmpRowBulk(in.Bank, in.Data, step, e.now)
			res.Differs = res.Differs || differs
			if err != nil {
				return fmt.Errorf("softmc: instr %d (cmprow): %w", i, err)
			}
			e.now += dram.Picos(len(in.Data)) * step
			justIssued = false
		default:
			return fmt.Errorf("softmc: instr %d: unknown kind %d", i, in.Kind)
		}
	}
	return nil
}
