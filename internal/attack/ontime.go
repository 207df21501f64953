package attack

import (
	"rowhammer/internal/dram"
)

// Attack Improvement 3: extend the aggressor row's on-time by issuing
// extra READ commands per activation. Each READ forces the row to stay
// open for at least tCCD more; 10–15 READs stretch tAggOn to ≈5× tRAS,
// which Obsv. 8 shows increases BER up to 10.2× and lowers HCfirst by
// ≈36% on average — below the threshold a defense was configured for.

// OnTimeWithReads returns the effective aggressor on-time when k READ
// commands are issued after each activation: the row must stay open
// tRCD for the first column access plus k·tCCD for the burst, no less
// than tRAS.
func OnTimeWithReads(tm dram.Timing, k int) dram.Picos {
	if k <= 0 {
		return tm.TRAS
	}
	on := tm.TRCD + dram.Picos(k)*tm.TCCD + tm.TRTP
	if on < tm.TRAS {
		on = tm.TRAS
	}
	return on
}
