package dram

import "testing"

func TestPatternRowBytesMatchTable1(t *testing.T) {
	// Table 1: victim (distance 0) and even-distance rows take the
	// first column; odd distance rows the second.
	cases := []struct {
		p         PatternKind
		even, odd uint8
	}{
		{PatColStripe, 0x55, 0x55},
		{PatColStripeInv, 0xaa, 0xaa},
		{PatCheckered, 0x55, 0xaa},
		{PatCheckeredInv, 0xaa, 0x55},
		{PatRowStripe, 0x00, 0xff},
		{PatRowStripeInv, 0xff, 0x00},
	}
	for _, c := range cases {
		for _, d := range []int{0, 2, 4, 6, 8, -2, -4} {
			if got := c.p.RowByte(d); got != c.even {
				t.Fatalf("%v dist %d = %#x, want %#x", c.p, d, got, c.even)
			}
		}
		for _, d := range []int{1, 3, 5, 7, -1, -3} {
			if got := c.p.RowByte(d); got != c.odd {
				t.Fatalf("%v dist %d = %#x, want %#x", c.p, d, got, c.odd)
			}
		}
	}
}

func TestComplementPatternsAreComplements(t *testing.T) {
	pairs := [][2]PatternKind{
		{PatColStripe, PatColStripeInv},
		{PatCheckered, PatCheckeredInv},
		{PatRowStripe, PatRowStripeInv},
	}
	for _, pr := range pairs {
		for d := -8; d <= 8; d++ {
			a := pr[0].RowByte(d)
			b := pr[1].RowByte(d)
			if a != ^b {
				t.Fatalf("%v/%v at distance %d: %#x vs %#x not complements", pr[0], pr[1], d, a, b)
			}
		}
	}
}

func TestFillWordExpandsByte(t *testing.T) {
	w := PatCheckered.FillWord(0, 0, 0, 1, 0)
	if w != 0xaaaaaaaaaaaaaaaa {
		t.Fatalf("FillWord = %#x", w)
	}
	w = PatRowStripe.FillWord(0, 0, 0, 0, 5)
	if w != 0 {
		t.Fatalf("rowstripe victim word = %#x", w)
	}
}

func TestRandomPatternDeterministicAndVaried(t *testing.T) {
	a := PatRandom.FillWord(42, 1, 2, 0, 3)
	b := PatRandom.FillWord(42, 1, 2, 0, 3)
	if a != b {
		t.Fatal("random pattern must be deterministic per key")
	}
	c := PatRandom.FillWord(42, 1, 2, 0, 4)
	if a == c {
		t.Fatal("random pattern should vary across words")
	}
	d := PatRandom.FillWord(43, 1, 2, 0, 3)
	if a == d {
		t.Fatal("random pattern should vary across seeds")
	}
}

func TestPatternStrings(t *testing.T) {
	if len(AllPatterns) != 7 || NumPatterns != 7 {
		t.Fatalf("AllPatterns has %d entries and NumPatterns is %d, want 7", len(AllPatterns), NumPatterns)
	}
	seen := map[string]bool{}
	for _, p := range AllPatterns {
		s := p.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("bad or duplicate pattern name %q", s)
		}
		seen[s] = true
	}
}
