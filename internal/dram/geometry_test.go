package dram

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	good := DefaultDDR4Geometry()
	if err := good.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Geometry)
	}{
		{"zero banks", func(g *Geometry) { g.Banks = 0 }},
		{"zero rows", func(g *Geometry) { g.RowsPerBank = 0 }},
		{"zero subarray", func(g *Geometry) { g.SubarrayRows = 0 }},
		{"subarray larger than bank", func(g *Geometry) { g.SubarrayRows = g.RowsPerBank * 2 }},
		{"non-divisible subarray", func(g *Geometry) { g.SubarrayRows = 513 }},
		{"zero chips", func(g *Geometry) { g.Chips = 0 }},
		{"bad width", func(g *Geometry) { g.ChipWidth = 5 }},
		{"zero columns", func(g *Geometry) { g.ColumnsPerRow = 0 }},
	}
	for _, c := range cases {
		g := good
		c.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestGeometryDerivedSizes(t *testing.T) {
	g := DefaultDDR4Geometry()
	if got := g.RowBits(); got != 8*8*128 {
		t.Fatalf("RowBits = %d", got)
	}
	if got := g.RowWords(); got != 8*8*128/64 {
		t.Fatalf("RowWords = %d", got)
	}
	if got := g.ChipRowBits(); got != 8*128 {
		t.Fatalf("ChipRowBits = %d", got)
	}
	if got := g.Subarrays(); got != 4 {
		t.Fatalf("Subarrays = %d", got)
	}
}

func TestSubarrayBoundaries(t *testing.T) {
	g := DefaultDDR4Geometry() // 512-row subarrays
	if g.SubarrayOf(0) != 0 || g.SubarrayOf(511) != 0 || g.SubarrayOf(512) != 1 {
		t.Fatal("subarray indexing wrong")
	}
	if g.SameSubarray(511, 512) {
		t.Fatal("rows 511 and 512 must be in different subarrays")
	}
	if !g.SameSubarray(512, 1023) {
		t.Fatal("rows 512 and 1023 must share a subarray")
	}
}

func TestBitIndexRoundTrip(t *testing.T) {
	g := DefaultDDR4Geometry()
	if err := quick.Check(func(rc, rcol, rline uint16) bool {
		chip := int(rc) % g.Chips
		col := int(rcol) % g.ColumnsPerRow
		line := int(rline) % g.ChipWidth
		bit := g.BitIndex(chip, col, line)
		if bit < 0 || bit >= g.RowBits() {
			return false
		}
		c2, col2, l2 := g.BitLocation(bit)
		return c2 == chip && col2 == col && l2 == line
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBitIndexDense(t *testing.T) {
	g := Geometry{Banks: 1, RowsPerBank: 8, SubarrayRows: 8, Chips: 2, ChipWidth: 8, ColumnsPerRow: 4}
	seen := make(map[int]bool)
	for col := 0; col < g.ColumnsPerRow; col++ {
		for chip := 0; chip < g.Chips; chip++ {
			for line := 0; line < g.ChipWidth; line++ {
				b := g.BitIndex(chip, col, line)
				if seen[b] {
					t.Fatalf("duplicate bit index %d", b)
				}
				seen[b] = true
			}
		}
	}
	if len(seen) != g.RowBits() {
		t.Fatalf("bit indexes not dense: %d of %d", len(seen), g.RowBits())
	}
}

func TestPicosConversions(t *testing.T) {
	if PicosFromNs(34.5) != 34500 {
		t.Fatalf("PicosFromNs(34.5) = %d", PicosFromNs(34.5))
	}
	if PicosFromNs(-1.5) != -1500 {
		t.Fatalf("PicosFromNs(-1.5) = %d", PicosFromNs(-1.5))
	}
	if got := Picos(34500).Nanoseconds(); got != 34.5 {
		t.Fatalf("Nanoseconds = %v", got)
	}
}

func TestTimingValidate(t *testing.T) {
	for _, tm := range []Timing{DDR4Timing(), DDR3Timing()} {
		if err := tm.Validate(); err != nil {
			t.Fatalf("preset timing invalid: %v", err)
		}
	}
	bad := DDR4Timing()
	bad.TRC = bad.TRAS // < TRAS+TRP
	if err := bad.Validate(); err == nil {
		t.Fatal("expected tRC consistency error")
	}
	bad2 := DDR4Timing()
	bad2.TCK = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected tCK error")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpNop: "NOP", OpAct: "ACT", OpPre: "PRE", OpPreAll: "PREA",
		OpRd: "RD", OpWr: "WR", OpRef: "REF",
	} {
		if op.String() != want {
			t.Fatalf("Op %d string = %q", op, op.String())
		}
	}
}
