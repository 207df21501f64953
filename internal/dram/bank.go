package dram

import "fmt"

// bankState is the per-bank state machine plus timing bookkeeping.
type bankState struct {
	// activeRow is the open physical row, or -1 when precharged.
	activeRow int

	// Timing bookkeeping (absolute Picos; negative sentinel = never).
	lastActAt   Picos
	lastPreAt   Picos
	lastRdAt    Picos
	lastWrAt    Picos
	lastColAt   Picos
	everAct     bool
	everPre     bool
	everCol     bool
	everRd      bool
	everWr      bool
	pendingOff  Picos   // precharged time preceding the current activation
	actTempC    float64 // module temperature when the row was opened
	hasRowOpen  bool
	rowOpenedAt Picos
	// senseDue marks the open row's disturbance as not yet applied:
	// execAct defers it, resolveSense or a full-row write settles it.
	senseDue bool

	// rows maps physical row index → backing data words. Rows are
	// allocated lazily on first activation or write.
	rows map[int][]uint64
	// check maps physical row index → on-die ECC check bytes (one per
	// 64-bit data word), allocated only when ECC is enabled.
	check map[int][]uint8
	// ledgers maps physical row index → accumulated disturbance.
	ledgers map[int]*RowLedger
	// restoredAt maps physical row index → last charge-restore time
	// (tracked only when retention modeling is enabled).
	restoredAt map[int]Picos
	// stale holds the physical rows whose flips a compare-read found
	// but never applied (Module.CmpRowBulk), so their stored words are
	// not what the device would hold. A full-row write burst or a reset
	// clears a row's mark; until then data and dataIfPresent panic on
	// it.
	stale map[int]struct{}

	// Free lists of row words, check bytes and ledgers released by
	// reset; data, checkBytes and ledger reuse them (zeroed) before
	// making new ones, so a reset module re-touching rows allocates
	// nothing.
	freeRows    [][]uint64
	freeChecks  [][]uint8
	freeLedgers []*RowLedger
}

func newBankState() *bankState {
	b := &bankState{
		rows:       make(map[int][]uint64),
		check:      make(map[int][]uint8),
		ledgers:    make(map[int]*RowLedger),
		restoredAt: make(map[int]Picos),
		stale:      make(map[int]struct{}),
	}
	b.reset()
	return b
}

// reset returns the bank to the state newBankState builds: precharged,
// no timing history and no rows. The rows' storage moves to the free
// lists.
func (b *bankState) reset() {
	for _, d := range b.rows {
		b.freeRows = append(b.freeRows, d)
	}
	for _, c := range b.check {
		b.freeChecks = append(b.freeChecks, c)
	}
	for _, l := range b.ledgers {
		b.freeLedgers = append(b.freeLedgers, l)
	}
	clear(b.rows)
	clear(b.check)
	clear(b.ledgers)
	clear(b.restoredAt)
	clear(b.stale)
	*b = bankState{
		activeRow:   -1,
		rows:        b.rows,
		check:       b.check,
		ledgers:     b.ledgers,
		restoredAt:  b.restoredAt,
		stale:       b.stale,
		freeRows:    b.freeRows,
		freeChecks:  b.freeChecks,
		freeLedgers: b.freeLedgers,
	}
}

// ledger returns the ledger for a physical row, creating it on demand.
func (b *bankState) ledger(row int) *RowLedger {
	l := b.ledgers[row]
	if l == nil {
		if n := len(b.freeLedgers); n > 0 {
			l = b.freeLedgers[n-1]
			b.freeLedgers = b.freeLedgers[:n-1]
			*l = RowLedger{}
		} else {
			l = &RowLedger{}
		}
		b.ledgers[row] = l
	}
	return l
}

// data returns the backing words for a physical row, allocating a
// zero-filled row on demand.
func (b *bankState) data(row, words int) []uint64 {
	if len(b.stale) != 0 {
		b.mustBeFresh(row)
	}
	d := b.rows[row]
	if d == nil {
		if n := len(b.freeRows); n > 0 {
			d = b.freeRows[n-1]
			b.freeRows = b.freeRows[:n-1]
			clear(d)
		} else {
			d = make([]uint64, words)
		}
		b.rows[row] = d
	}
	return d
}

// checkBytes returns the on-die ECC check bytes of a physical row,
// allocating zeroed ones on demand.
func (b *bankState) checkBytes(row, cols int) []uint8 {
	c := b.check[row]
	if c == nil {
		if n := len(b.freeChecks); n > 0 {
			c = b.freeChecks[n-1]
			b.freeChecks = b.freeChecks[:n-1]
			clear(c)
		} else {
			c = make([]uint8, cols)
		}
		b.check[row] = c
	}
	return c
}

// dataIfPresent returns the row's backing words without allocating.
func (b *bankState) dataIfPresent(row int) []uint64 {
	if len(b.stale) != 0 {
		b.mustBeFresh(row)
	}
	return b.rows[row]
}

// mustBeFresh panics when a physical row is stale: its words lack
// flips a compare-read found, and handing them out — to a read, a
// partial write, a peek, retention decay or a neighbor's disturbance —
// would observe a state the device never had. Only a caller that
// compare-reads a row and then touches it before overwriting it in
// full can get here.
func (b *bankState) mustBeFresh(row int) {
	if _, ok := b.stale[row]; ok {
		panic(fmt.Sprintf("dram: physical row %d is stale: a compare-read found flips it never applied, so only a full-row write burst or Reset may touch it", row))
	}
}
