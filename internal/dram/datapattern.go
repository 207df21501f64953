package dram

import "rowhammer/internal/rng"

// PatternKind enumerates the seven data patterns of Table 1: colstripe,
// checkered, rowstripe, their complements, and random.
type PatternKind int

// The Table 1 data patterns.
const (
	PatColStripe PatternKind = iota
	PatColStripeInv
	PatCheckered
	PatCheckeredInv
	PatRowStripe
	PatRowStripeInv
	PatRandom
)

// NumPatterns is the number of Table 1 patterns (len(AllPatterns)).
const NumPatterns = 7

// AllPatterns lists every Table 1 pattern in a stable order.
var AllPatterns = []PatternKind{
	PatColStripe, PatColStripeInv,
	PatCheckered, PatCheckeredInv,
	PatRowStripe, PatRowStripeInv,
	PatRandom,
}

// String returns the paper's name for the pattern.
func (p PatternKind) String() string {
	switch p {
	case PatColStripe:
		return "colstripe"
	case PatColStripeInv:
		return "colstripe~"
	case PatCheckered:
		return "checkered"
	case PatCheckeredInv:
		return "checkered~"
	case PatRowStripe:
		return "rowstripe"
	case PatRowStripeInv:
		return "rowstripe~"
	case PatRandom:
		return "random"
	default:
		return "unknown"
	}
}

// RowByte returns the fill byte for a row at the given distance parity
// from the victim row, following Table 1: the victim and even-distance
// rows take the first column, odd-distance rows the second.
//
//	pattern      V±[0,2,4,6,8]  V±[1,3,5,7]
//	colstripe        0x55          0x55
//	checkered        0x55          0xaa
//	rowstripe        0x00          0xff
//
// For PatRandom the byte is drawn per (seed, row, word) elsewhere; this
// function returns 0 and callers must special-case it.
func (p PatternKind) RowByte(distanceFromVictim int) uint8 {
	odd := distanceFromVictim%2 != 0
	if distanceFromVictim < 0 {
		odd = (-distanceFromVictim)%2 != 0
	}
	switch p {
	case PatColStripe:
		return 0x55
	case PatColStripeInv:
		return 0xaa
	case PatCheckered:
		if odd {
			return 0xaa
		}
		return 0x55
	case PatCheckeredInv:
		if odd {
			return 0x55
		}
		return 0xaa
	case PatRowStripe:
		if odd {
			return 0xff
		}
		return 0x00
	case PatRowStripeInv:
		if odd {
			return 0x00
		}
		return 0xff
	default:
		return 0
	}
}

// FillWord returns the 64-bit fill word for word index w of a row at
// the given distance from the victim. Random patterns are a pure
// function of (seed, bank, row, word).
func (p PatternKind) FillWord(seed uint64, bank, row, distanceFromVictim, w int) uint64 {
	if p == PatRandom {
		return rng.Hash64(seed, uint64(bank), uint64(row), uint64(w), 0xda7a)
	}
	b := uint64(p.RowByte(distanceFromVictim))
	b |= b << 8
	b |= b << 16
	b |= b << 32
	return b
}
