package dram

import "fmt"

// Rows are stored in pages of rowPageRows consecutive physical rows,
// indexed directly by row number: row r lives in slot r&rowPageMask of
// page r>>rowPageShift.
const (
	rowPageShift = 6
	rowPageRows  = 1 << rowPageShift
	rowPageMask  = rowPageRows - 1
)

// rowSlot is everything a bank keeps for one physical row.
type rowSlot struct {
	// data is the row's backing words, allocated lazily on first
	// activation or write.
	data []uint64
	// check is the row's on-die ECC check bytes (one per 64-bit data
	// word), allocated only when ECC is enabled.
	check []uint8
	// ledger is the row's accumulated disturbance.
	ledger RowLedger
	// restoredAt is the row's last charge-restore time, valid when
	// restored is set (tracked only when retention modeling is enabled).
	restoredAt Picos
	restored   bool
	// stale marks a row whose flips a compare-read found but never
	// applied (Module.CmpRowBulk), so its stored words are not what the
	// device would hold. A full-row write burst or a reset clears the
	// mark; until then data and dataIfPresent panic on it.
	stale bool
}

// rowPage is one page of a bank's row table (8 KiB, a Go size class).
type rowPage [rowPageRows]rowSlot

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

	// pages is the row table: one entry per rowPageRows rows, nil until
	// a row of the page is first touched. Pages are kept, zeroed, across
	// reset, so a reset bank re-touching its rows allocates no page.
	pages []*rowPage
	// live lists the indexes of the pages touched since the last reset,
	// the only pages reset has to clear; isLive marks them.
	live   []int
	isLive []bool
	// staleRows counts the rows marked stale.
	staleRows int

	// Free lists of row words and check bytes released by reset; data
	// and checkBytes reuse them (zeroed) before making new ones, so a
	// reset module re-touching rows allocates nothing.
	freeRows   [][]uint64
	freeChecks [][]uint8
}

func newBankState(rows int) *bankState {
	n := (rows + rowPageRows - 1) / rowPageRows
	b := &bankState{pages: make([]*rowPage, n), isLive: make([]bool, n)}
	b.reset()
	return b
}

// reset returns the bank to the state newBankState builds: precharged,
// no timing history and no rows. The rows' storage moves to the free
// lists and their pages are zeroed.
func (b *bankState) reset() {
	for _, pi := range b.live {
		p := b.pages[pi]
		for i := range p {
			s := &p[i]
			if s.data != nil {
				b.freeRows = append(b.freeRows, s.data)
			}
			if s.check != nil {
				b.freeChecks = append(b.freeChecks, s.check)
			}
		}
		*p = rowPage{}
		b.isLive[pi] = false
	}
	*b = bankState{
		activeRow:  -1,
		pages:      b.pages,
		live:       b.live[:0],
		isLive:     b.isLive,
		freeRows:   b.freeRows,
		freeChecks: b.freeChecks,
	}
}

// slot returns a physical row's slot, allocating its page on first
// touch.
func (b *bankState) slot(row int) *rowSlot {
	pi := row >> rowPageShift
	p := b.pages[pi]
	if p == nil {
		p = new(rowPage)
		b.pages[pi] = p
	}
	if !b.isLive[pi] {
		b.isLive[pi] = true
		b.live = append(b.live, pi)
	}
	return &p[row&rowPageMask]
}

// peek returns a physical row's slot without allocating, or nil when
// its page was never touched (every field of such a row is zero).
func (b *bankState) peek(row int) *rowSlot {
	if p := b.pages[row>>rowPageShift]; p != nil {
		return &p[row&rowPageMask]
	}
	return nil
}

// ledger returns the ledger for a physical row.
func (b *bankState) ledger(row int) *RowLedger { return &b.slot(row).ledger }

// data returns the backing words for a physical row, allocating a
// zero-filled row on demand.
func (b *bankState) data(row, words int) []uint64 {
	s := b.slot(row)
	if s.stale {
		panicStale(row)
	}
	if s.data == nil {
		if n := len(b.freeRows); n > 0 {
			s.data = b.freeRows[n-1]
			b.freeRows = b.freeRows[:n-1]
			clear(s.data)
		} else {
			s.data = make([]uint64, words)
		}
	}
	return s.data
}

// checkBytes returns the on-die ECC check bytes of a physical row,
// allocating zeroed ones on demand.
func (b *bankState) checkBytes(row, cols int) []uint8 {
	s := b.slot(row)
	if s.check == nil {
		if n := len(b.freeChecks); n > 0 {
			s.check = b.freeChecks[n-1]
			b.freeChecks = b.freeChecks[:n-1]
			clear(s.check)
		} else {
			s.check = make([]uint8, cols)
		}
	}
	return s.check
}

// dataIfPresent returns the row's backing words without allocating.
func (b *bankState) dataIfPresent(row int) []uint64 {
	s := b.peek(row)
	if s == nil {
		return nil
	}
	if s.stale {
		panicStale(row)
	}
	return s.data
}

// markStale marks a physical row stale (see rowSlot.stale).
func (b *bankState) markStale(row int) {
	if s := b.slot(row); !s.stale {
		s.stale = true
		b.staleRows++
	}
}

// clearStale clears a physical row's stale mark, if any.
func (b *bankState) clearStale(row int) {
	if b.staleRows == 0 {
		return
	}
	if s := b.peek(row); s != nil && s.stale {
		s.stale = false
		b.staleRows--
	}
}

// panicStale reports an access to a stale row: its words lack flips a
// compare-read found, and handing them out — to a read, a partial
// write, a peek, retention decay or a neighbor's disturbance — would
// observe a state the device never had. Only a caller that
// compare-reads a row and then touches it before overwriting it in
// full can get here.
func panicStale(row int) {
	panic(fmt.Sprintf("dram: physical row %d is stale: a compare-read found flips it never applied, so only a full-row write burst or Reset may touch it", row))
}
