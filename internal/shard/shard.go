// Package shard splits one fleet campaign across many independent
// processes. A campaign spec expands to a canonically ordered job
// grid (internal/campaign.Expand); Partition cuts that grid into N
// disjoint contiguous ranges, one per shard, so N workers — separate
// processes, separate machines — each run their slice through the
// unchanged engine with their own crash-safe v2 checkpoint. Because
// per-job records are deterministic and aggregation is
// order-independent, the union of the shard checkpoints merges
// (MergeShards) into a summary and artifact byte-identical to a
// single-process run, no matter how the work was split, how often
// shards died and resumed, or which process re-ran a reassigned job.
//
// Fault tolerance rests on two things per shard:
//
//   - the shard checkpoint (campaign v2 format, shard-stamped header)
//     records exactly which jobs are done, so a dead shard's
//     *remaining* jobs are computable by anyone holding the file;
//   - the shard lease, held in a lease service (internal/leasesvc),
//     proves ownership and liveness: every acquisition mints a
//     fencing token that the shard's fence file and every record
//     append enforce, and a holder that is alive but wedged stops
//     advancing its heartbeat sequence.
//
// Coordinate supervises N workers through a process-agnostic Spawn
// seam (exec'd rhfleet subprocesses under rhfleet -coordinate) or
// through fleet placement onto registered workers (rhserved), always
// over one lease service: it frees a dead worker's lease the moment
// the worker exits, kills a stalled one, and reassigns a dead shard's remaining
// jobs to a fresh worker that resumes from the dead shard's
// checkpoint — the straggler path that keeps one bad machine from
// stalling a 10k-module fleet.
package shard

import (
	"fmt"
	"strconv"
	"strings"

	"rowhammer/internal/campaign"
)

// Assignment names one shard's contiguous slice of a campaign's job
// grid: shard Index of Of.
type Assignment struct {
	Index int `json:"shard"`
	Of    int `json:"of"`
}

// String renders the assignment in the CLI's i/N form.
func (a Assignment) String() string { return fmt.Sprintf("%d/%d", a.Index, a.Of) }

// Validate rejects malformed assignments.
func (a Assignment) Validate() error {
	if a.Of < 1 {
		return fmt.Errorf("shard: shard count %d < 1", a.Of)
	}
	if a.Index < 0 || a.Index >= a.Of {
		return fmt.Errorf("shard: shard index %d outside [0,%d)", a.Index, a.Of)
	}
	return nil
}

// ParseAssignment parses the CLI form "i/N".
func ParseAssignment(s string) (Assignment, error) {
	idx, of, ok := strings.Cut(s, "/")
	if !ok {
		return Assignment{}, fmt.Errorf("shard: bad assignment %q (want i/N, e.g. 2/8)", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return Assignment{}, fmt.Errorf("shard: bad shard index in %q: %w", s, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(of))
	if err != nil {
		return Assignment{}, fmt.Errorf("shard: bad shard count in %q: %w", s, err)
	}
	a := Assignment{Index: i, Of: n}
	if err := a.Validate(); err != nil {
		return Assignment{}, err
	}
	return a, nil
}

// Partition lists the N assignments covering a campaign.
func Partition(n int) []Assignment {
	out := make([]Assignment, n)
	for i := range out {
		out[i] = Assignment{Index: i, Of: n}
	}
	return out
}

// cut returns the half-open job-index range [lo, hi) the assignment
// owns over a grid of total jobs. Ranges are contiguous — shard 0
// takes the first manufacturers/modules of the canonical order — and
// balanced to within one job, and every job index lands in exactly
// one shard for any total (shards beyond the job count get empty
// ranges).
func (a Assignment) cut(total int) (lo, hi int) {
	return a.Index * total / a.Of, (a.Index + 1) * total / a.Of
}

// Jobs lists the spec's jobs owned by the assignment, in canonical
// order.
func (a Assignment) Jobs(spec campaign.Spec) []campaign.Job {
	all := campaign.Expand(spec)
	lo, hi := a.cut(len(all))
	return all[lo:hi]
}

// Filter returns the assignment's job-key set — the engine's
// Options.Only filter.
func (a Assignment) Filter(spec campaign.Spec) map[string]bool {
	jobs := a.Jobs(spec)
	only := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		only[j.Key()] = true
	}
	return only
}
