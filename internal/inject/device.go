package inject

import (
	"fmt"

	"rowhammer/internal/dram"
	"rowhammer/internal/rng"
	"rowhammer/internal/softmc"
)

// Device wraps a softmc.Device with deterministic command-level fault
// injection: transient link faults on any operation and CRC-detected
// corruption on readouts. Faults are keyed on (profile seed, device
// key, operation counter), so re-running the same program over a
// fresh wrapper reproduces the same faults at the same commands.
//
// Like the executor it feeds, a Device is not safe for concurrent use.
type Device struct {
	inner softmc.Device
	prof  *Profile
	key   uint64
	ops   uint64
}

// WrapDevice interposes the profile on a device. key identifies the
// module (e.g. its seed), so each module sees an independent fault
// stream. A nil or inactive profile returns the device unwrapped.
func WrapDevice(inner softmc.Device, p *Profile, key uint64) softmc.Device {
	if !p.Active() {
		return inner
	}
	return &Device{inner: inner, prof: p, key: key}
}

// Ops returns how many operations the wrapper has seen (test hook).
func (d *Device) Ops() uint64 { return d.ops }

// Timing passes through to the real device.
func (d *Device) Timing() dram.Timing { return d.inner.Timing() }

// Exec executes one command, possibly injecting a link fault before it
// reaches the module or corrupting a readout on the way back. A
// corrupted readout returns both the damaged beat and ErrReadCRC, the
// way a checksummed FPGA readback surfaces torn data.
func (d *Device) Exec(cmd dram.Command, now dram.Picos) (uint64, error) {
	d.ops++
	if d.prof.hitOp(d.prof.CmdErrRate, chCmd, d.key, d.ops) {
		return 0, fmt.Errorf("%w: op %d (%v)", ErrLinkFault, d.ops, cmd.Op)
	}
	v, err := d.inner.Exec(cmd, now)
	if err != nil {
		return v, err
	}
	if cmd.Op == dram.OpRd && d.prof.hitOp(d.prof.ReadCorruptRate, chRead, d.key, d.ops) {
		mask := rng.Hash64(d.prof.Seed, d.key, d.ops)
		return v ^ mask, fmt.Errorf("%w: op %d", ErrReadCRC, d.ops)
	}
	return v, nil
}

// WrRowBulk decomposes the burst into per-command Exec calls so the
// fault stream advances one op per column, exactly as if the program
// had issued the commands individually.
func (d *Device) WrRowBulk(bank int, data []uint64, step, start dram.Picos) error {
	for col, beat := range data {
		cmd := dram.Command{Op: dram.OpWr, Bank: bank, Col: col, Data: beat}
		if _, err := d.Exec(cmd, start+dram.Picos(col)*step); err != nil {
			return err
		}
	}
	return nil
}

// RdRowBulk decomposes the burst into per-command Exec calls (see
// WrRowBulk); a corrupted readout aborts the burst with ErrReadCRC.
func (d *Device) RdRowBulk(bank, cols int, step, start dram.Picos, dst []uint64) ([]uint64, error) {
	for col := 0; col < cols; col++ {
		cmd := dram.Command{Op: dram.OpRd, Bank: bank, Col: col}
		beat, err := d.Exec(cmd, start+dram.Picos(col)*step)
		if err != nil {
			return dst, err
		}
		dst = append(dst, beat)
	}
	return dst, nil
}

// CmpRowBulk decomposes the compare-read into per-column RD Exec
// calls, so the fault stream advances exactly as for RdRowBulk over
// len(want) columns, and compares the beats read with want. Every
// column is read in full, so the inner device applies every flip.
func (d *Device) CmpRowBulk(bank int, want []uint64, step, start dram.Picos) (bool, error) {
	differs := false
	for col, w := range want {
		cmd := dram.Command{Op: dram.OpRd, Bank: bank, Col: col}
		beat, err := d.Exec(cmd, start+dram.Picos(col)*step)
		if err != nil {
			return differs, err
		}
		differs = differs || beat != w
	}
	return differs, nil
}

// Settle forwards to the real device. It is not a link operation, so
// it neither advances the fault stream nor fails.
func (d *Device) Settle() { d.inner.Settle() }

// HammerBulk forwards the bulk fast path, subject to link faults.
func (d *Device) HammerBulk(bank int, rows []int, count int64, aggOn, aggOff dram.Picos, start dram.Picos) (dram.Picos, error) {
	d.ops++
	if d.prof.hitOp(d.prof.CmdErrRate, chCmd, d.key, d.ops) {
		return start, fmt.Errorf("%w: op %d (hammer loop)", ErrLinkFault, d.ops)
	}
	return d.inner.HammerBulk(bank, rows, count, aggOn, aggOff, start)
}
