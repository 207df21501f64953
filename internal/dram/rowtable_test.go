package dram

import (
	"reflect"
	"testing"
)

// TestRowTablePageBoundary: rows 63 and 64 sit in different pages of
// the row table, and each keeps its own words, check bytes and ledger;
// the last row of a bank whose row count is not a whole number of
// pages is stored like any other. A reset zeroes the pages and keeps
// them.
func TestRowTablePageBoundary(t *testing.T) {
	m, err := NewModule(ModuleConfig{
		Geometry: Geometry{Banks: 1, RowsPerBank: 96, SubarrayRows: 96, Chips: 8, ChipWidth: 8, ColumnsPerRow: 8},
		Timing:   DDR4Timing(),
		OnDieECC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &driver{m: m, t: t}
	word := func(row, col int) uint64 { return uint64(row)<<40 | uint64(col)*0x0101 }
	rows := []int{63, 64, 95}
	for _, row := range rows {
		for col := 0; col < 8; col++ {
			d.openWriteClose(0, row, col, word(row, col))
		}
	}
	tm := m.Timing()
	before63, before64 := m.PeekLedger(0, 63), m.PeekLedger(0, 64)
	end, err := m.HammerBulk(0, []int{62}, 1000, tm.TRAS, tm.TRP, d.now)
	if err != nil {
		t.Fatal(err)
	}
	d.now = end + tm.TRP
	// Row 62's neighbours: 63 at distance 1, 64 at distance 2.
	l63, l64 := m.PeekLedger(0, 63), m.PeekLedger(0, 64)
	if g := [2]int64{l63.Dist[0].Count - before63.Dist[0].Count, l63.Dist[1].Count - before63.Dist[1].Count}; g != [2]int64{1000, 0} {
		t.Fatalf("row 63 ledger grew by %v activations at distances 1/2, want [1000 0]", g)
	}
	if g := [2]int64{l64.Dist[0].Count - before64.Dist[0].Count, l64.Dist[1].Count - before64.Dist[1].Count}; g != [2]int64{0, 1000} {
		t.Fatalf("row 64 ledger grew by %v activations at distances 1/2, want [0 1000]", g)
	}
	for _, row := range rows {
		for col := 0; col < 8; col++ {
			if got := d.openReadClose(0, row, col); got != word(row, col) {
				t.Fatalf("row %d col %d read %#x, want %#x", row, col, got, word(row, col))
			}
		}
	}
	b := m.banks[0]
	if len(b.pages) != 2 || b.pages[0] == nil || b.pages[1] == nil {
		t.Fatalf("row table has %d pages (%v), want 2 allocated", len(b.pages), b.pages)
	}
	for _, row := range rows {
		for col, c := range b.peek(row).check {
			if c != ECCEncode(word(row, col)) {
				t.Fatalf("row %d col %d check byte %#x, want %#x", row, col, c, ECCEncode(word(row, col)))
			}
		}
	}
	pages := [2]*rowPage{b.pages[0], b.pages[1]}
	m.Reset()
	for i, p := range pages {
		if b.pages[i] != p {
			t.Fatalf("reset replaced page %d", i)
		}
		if !reflect.ValueOf(*p).IsZero() {
			t.Fatalf("reset left page %d with state", i)
		}
	}
	if len(b.live) != 0 || b.isLive[0] || b.isLive[1] {
		t.Fatalf("reset left live pages %v %v", b.live, b.isLive)
	}
	for _, row := range rows {
		if got := m.PeekRow(0, row); got != nil {
			t.Fatalf("reset module still holds row %d: %#x", row, got)
		}
	}
}

// TestPeekOutOfRangeRow: the diagnostic peeks answer "nothing there"
// for a row outside the bank instead of indexing past the row table.
func TestPeekOutOfRangeRow(t *testing.T) {
	m := resetTestModule(t)
	for _, row := range []int{-1, -64, m.Geometry().RowsPerBank, 1 << 20} {
		if got := m.PeekRow(0, row); got != nil {
			t.Fatalf("PeekRow(0, %d) = %#x, want nil", row, got)
		}
		if got := m.PeekLedger(0, row); !got.Empty() {
			t.Fatalf("PeekLedger(0, %d) = %+v, want empty", row, got)
		}
	}
}
