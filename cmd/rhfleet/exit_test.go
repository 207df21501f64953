package main

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"rowhammer/internal/campaign"
	"rowhammer/internal/shard"
)

// TestExitCode pins rhfleet's exit codes, one row per outcome a role
// can end in: a whole-campaign run, a -shard worker, a -worker, a
// coordinator, and a merge (-coordinate or -merge-shards).
func TestExitCode(t *testing.T) {
	failed := errors.New("campaign: 1 of 4 jobs failed")
	quarantined := []string{"A/0"}
	cases := []struct {
		name string
		o    outcome
		want int
	}{
		{"complete", outcome{}, 0},
		{"drained", outcome{err: campaign.ErrDrained}, 3},
		{"drained wrapped", outcome{err: fmt.Errorf("shard: %w", campaign.ErrDrained)}, 3},
		{"drained with quarantined modules", outcome{err: campaign.ErrDrained, quarantined: quarantined}, 3},
		{"interrupted", outcome{err: context.Canceled}, 3},
		{"timed out", outcome{err: context.DeadlineExceeded}, 3},
		{"quarantined", outcome{err: failed, quarantined: quarantined}, 4},
		{"failed jobs", outcome{err: failed}, 1},
		{"other error", outcome{err: errors.New("checkpoint: disk full")}, 1},
		{"shard worker fenced", outcome{err: fmt.Errorf("append: %w", shard.ErrFenced)}, 1},
		{"shard worker fenced with quarantined modules", outcome{err: shard.ErrFenced, quarantined: quarantined}, 1},
		{"merge complete", outcome{}, 0},
		{"merge missing jobs", outcome{missing: true, failed: 1, quarantined: quarantined}, 3},
		{"merge quarantined", outcome{failed: 1, quarantined: quarantined}, 4},
		{"merge failed jobs", outcome{failed: 1}, 1},
	}
	for _, c := range cases {
		if got := exitCode(c.o); got != c.want {
			t.Errorf("%s: exitCode = %d, want %d", c.name, got, c.want)
		}
	}
}
