package dram

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
}

func newBankState() *bankState {
	return &bankState{
		activeRow:  -1,
		rows:       make(map[int][]uint64),
		check:      make(map[int][]uint8),
		ledgers:    make(map[int]*RowLedger),
		restoredAt: make(map[int]Picos),
	}
}

// ledger returns the ledger for a physical row, creating it on demand.
func (b *bankState) ledger(row int) *RowLedger {
	l := b.ledgers[row]
	if l == nil {
		l = &RowLedger{}
		b.ledgers[row] = l
	}
	return l
}

// data returns the backing words for a physical row, allocating a
// zero-filled row on demand.
func (b *bankState) data(row, words int) []uint64 {
	d := b.rows[row]
	if d == nil {
		d = make([]uint64, words)
		b.rows[row] = d
	}
	return d
}

// dataIfPresent returns the row's backing words without allocating.
func (b *bankState) dataIfPresent(row int) []uint64 { return b.rows[row] }
