package exp

import (
	"context"
	"errors"
	"testing"
)

// TestComputeHonoursCancellation: every experiment that hammers checks
// its ctx between measurement units, so Compute on an already-cancelled
// ctx returns an error wrapping context.Canceled instead of measuring
// (or silently returning a result). Exempt are table2, which lists the
// module inventory without touching a bench, and fig6, which traces one
// short command program with no loop to interrupt.
func TestComputeHonoursCancellation(t *testing.T) {
	exempt := map[string]bool{"table2": true, "fig6": true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := tinyConfig().WithContext(ctx).normalize()
	for _, e := range All() {
		if exempt[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			_, err := e.Compute(ctx, cfg, e.Shards[0])
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Compute on a cancelled ctx = %v, want an error wrapping context.Canceled", err)
			}
		})
	}
}
