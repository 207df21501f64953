package dram

import "math/bits"

// On-die ECC: a (72, 64) Hamming SEC code with an overall parity bit
// (SECDED). Modern DRAM dies add a comparable single-error-correcting
// code transparently; the study deliberately tests modules *without*
// ECC so observed flips are raw circuit-level flips (§4.2). The
// simulator implements the code so defense experiments (Improvement 6)
// can quantify what ECC would absorb.
//
// Layout: 64 data bits are positioned at the non-power-of-two positions
// of a 1-based 72-bit codeword; positions 1,2,4,...,64 hold the seven
// Hamming parity bits; position 0 (stored as bit 7 of the check byte)
// holds overall parity.

// eccDataPos[i] is the 1-based codeword position of data bit i.
var eccDataPos = func() [64]int {
	var pos [64]int
	p := 1
	for i := 0; i < 64; i++ {
		for p&(p-1) == 0 { // skip powers of two (parity positions)
			p++
		}
		pos[i] = p
		p++
	}
	return pos
}()

// ECCEncode returns the check byte for a 64-bit data word: bits 0..6
// are the Hamming parity bits P1..P64, bit 7 is overall parity of the
// full codeword.
func ECCEncode(data uint64) uint8 {
	var check uint8
	for pb := 0; pb < 7; pb++ {
		mask := 1 << pb
		parity := 0
		for i := 0; i < 64; i++ {
			if eccDataPos[i]&mask != 0 && data&(1<<i) != 0 {
				parity ^= 1
			}
		}
		if parity != 0 {
			check |= 1 << pb
		}
	}
	// Overall parity covers data and the seven Hamming bits.
	overall := bits.OnesCount64(data) + bits.OnesCount8(check&0x7f)
	if overall&1 != 0 {
		check |= 0x80
	}
	return check
}

// ECCResult classifies a decode outcome.
type ECCResult int

// Decode outcomes.
const (
	ECCNoError ECCResult = iota
	ECCCorrected
	ECCDetectedUncorrectable
)

// ECCDecode checks data against its stored check byte, returning the
// possibly corrected data and the decode classification. Single-bit
// data errors are corrected; single-bit check errors are recognized;
// double-bit errors are detected via the overall parity bit.
func ECCDecode(data uint64, check uint8) (uint64, ECCResult) {
	recomputed := ECCEncode(data)
	syndrome := (check ^ recomputed) & 0x7f
	// Parity of the *received* codeword (data + stored check byte).
	// The encoder makes the transmitted codeword even-parity, so any
	// odd number of bit errors leaves the received parity odd.
	wholeOdd := (bits.OnesCount64(data)+bits.OnesCount8(check))&1 != 0

	switch {
	case syndrome == 0 && !wholeOdd:
		return data, ECCNoError
	case syndrome == 0 && wholeOdd:
		// Error in the overall parity bit itself.
		return data, ECCCorrected
	case wholeOdd:
		// Odd number of errors: assume single, correct by syndrome.
		pos := int(syndrome)
		for i := 0; i < 64; i++ {
			if eccDataPos[i] == pos {
				return data ^ (1 << i), ECCCorrected
			}
		}
		// Syndrome points at a parity position: check-bit error only.
		return data, ECCCorrected
	default:
		// Non-zero syndrome with even received parity: even error
		// count, uncorrectable.
		return data, ECCDetectedUncorrectable
	}
}
