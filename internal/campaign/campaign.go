// Package campaign implements a deterministic fleet-characterization
// engine: it expands a campaign specification (manufacturers × module
// instances × experiment kind) into per-module jobs, runs them on a
// bounded worker pool with cancellation, panic recovery and bounded
// retry, streams completed records to a JSONL checkpoint, and merges
// per-module records into order-independent fleet aggregates — so an
// interrupted-and-resumed campaign produces bit-identical summaries to
// an uninterrupted one.
//
// The package is measurement-agnostic: jobs are executed by a Runner
// callback supplied by the caller (the public rowhammer.RunCampaign
// API wires it to the per-module measurement cores, internal/exp to
// the paper experiments), which keeps this engine free of import
// cycles and lets tests inject fault-injecting runners. The engine
// runs whatever kind its Runner runs: the layer that lowers outside
// input to a Spec — the rowhammer package for measurement kinds,
// internal/server for experiments — decides which kinds exist.
package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"rowhammer/internal/pool"
	"rowhammer/internal/rng"
)

// The per-module measurement kinds. They mirror the paper's
// characterization axes: HCfirst sweeps (Fig. 11), BER across a
// temperature grid (§5), worst-case data pattern surveys (§4.2/Table
// 1), and spatial subarray profiles (§7).
const (
	KindHCFirst = "hcfirst"
	KindBER     = "ber"
	KindWCDP    = "wcdp"
	KindSpatial = "spatial"
)

// Kinds lists the built-in measurement kinds.
func Kinds() []string { return []string{KindHCFirst, KindBER, KindWCDP, KindSpatial} }

// Spec declares a fleet campaign. The zero value is normalized to a
// four-manufacturer, four-modules-each HCfirst campaign.
type Spec struct {
	// Kind selects the per-module experiment (Kind* constants).
	Kind string `json:"kind"`
	// Mfrs lists the manufacturer profiles to cover.
	Mfrs []string `json:"mfrs"`
	// ModulesPerMfr is the number of module instances per manufacturer.
	ModulesPerMfr int `json:"modules_per_mfr"`
	// Seed is the master seed; per-module seeds are derived from it by
	// the runner, which is what makes the whole campaign deterministic.
	Seed uint64 `json:"seed"`
	// Workers bounds the worker pool (< 1 selects NumCPU).
	Workers int `json:"workers,omitempty"`
	// MaxRetries is how many times a failed or panicked job is retried
	// before it is reported as failed (default 1).
	MaxRetries int `json:"max_retries,omitempty"`
	// JobTimeout bounds one job *attempt*: the runner's context is
	// cancelled after this long and the attempt counts as failed, so a
	// wedged module cannot stall the fleet (0 = no per-job deadline).
	JobTimeout time.Duration `json:"job_timeout,omitempty"`
	// RetryBackoff is the base of the exponential retry backoff:
	// before retry k the worker sleeps RetryBackoff·2^(k-1), capped at
	// 32×RetryBackoff, plus a deterministic jitter in [0, RetryBackoff)
	// derived from (Seed, job key, attempt) — so backoff schedules are
	// reproducible and never synchronize across workers (0 = retry
	// immediately, the pre-hardening behavior).
	RetryBackoff time.Duration `json:"retry_backoff,omitempty"`
	// BreakerThreshold is the circuit breaker: a module is quarantined
	// after this many consecutive failed attempts, skipping any
	// remaining retries and excluding the module from the aggregate
	// with explicit coverage accounting (0 = breaker disabled).
	BreakerThreshold int `json:"breaker_threshold,omitempty"`
	// WatchdogFactor arms the stuck-job watchdog: an attempt whose
	// runner has not returned JobTimeout×WatchdogFactor after it
	// started is first cancelled, and if it still does not return
	// within another such window the attempt is
	// abandoned — the worker is freed and the job requeued through the
	// bounded retry path, so one wedged module that ignores its
	// context can no longer stall the fleet forever. 0 disables the
	// watchdog; a non-zero value requires JobTimeout > 0.
	WatchdogFactor int `json:"watchdog_factor,omitempty"`
	// Temps is the temperature grid of BER campaigns; empty selects the
	// runner's default grid.
	Temps []float64 `json:"temps,omitempty"`
	// Fingerprint is an opaque caller-supplied measurement-identity
	// tag folded into IdentityHash. The rowhammer layer sets it from
	// the Scale and Geometry, which change measured values without
	// changing the job set — a checkpoint taken at one scale must not
	// resume into a campaign at another.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// IdentityHash returns a 16-hex-digit hash of the fields that define
// what the campaign measures — Kind, Mfrs, ModulesPerMfr, Seed, Temps
// and Fingerprint. Scheduling knobs (workers, retries, timeouts,
// backoff, breaker, watchdog) are deliberately excluded: changing how
// fast a campaign runs never invalidates its checkpoint. A v2
// checkpoint records the hash in its header, and resume rejects a
// mismatch (ErrSpecMismatch).
func (s Spec) IdentityHash() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d|%d|%s", s.Kind, strings.Join(s.Mfrs, ","), s.ModulesPerMfr, s.Seed, s.Fingerprint)
	for _, t := range s.Temps {
		fmt.Fprintf(&b, "|%g", t)
	}
	return fmt.Sprintf("%016x", rng.HashString(b.String()))
}

// MaxJobs bounds a campaign's job count, len(Mfrs)×ModulesPerMfr.
// Expand lists every job in memory, and the campaign server expands a
// spec it received over the network as soon as it is submitted, so an
// unbounded module count is a way to exhaust its memory. 65,536 jobs
// are far beyond any fleet the paper studies (272 chips) and expand to
// a few MB.
const MaxJobs = 1 << 16

// JobCountError reports a spec whose job count exceeds MaxJobs.
type JobCountError struct {
	Mfrs, ModulesPerMfr int
}

func (e *JobCountError) Error() string {
	return fmt.Sprintf("campaign: %d manufacturers × %d modules per manufacturer exceeds the limit of %d jobs",
		e.Mfrs, e.ModulesPerMfr, MaxJobs)
}

// Normalize fills Spec defaults and validates the job count
// (*JobCountError beyond MaxJobs). It does not judge the kind: the
// Runner defines which kinds a campaign can run.
func (s Spec) Normalize() (Spec, error) {
	if s.Kind == "" {
		s.Kind = KindHCFirst
	}
	if len(s.Mfrs) == 0 {
		s.Mfrs = []string{"A", "B", "C", "D"}
	}
	if s.ModulesPerMfr < 1 {
		s.ModulesPerMfr = 4
	}
	// Divide rather than multiply: the product may overflow.
	if s.ModulesPerMfr > MaxJobs/len(s.Mfrs) {
		return s, &JobCountError{Mfrs: len(s.Mfrs), ModulesPerMfr: s.ModulesPerMfr}
	}
	if s.Seed == 0 {
		s.Seed = 0x5eed
	}
	if s.Workers < 1 {
		s.Workers = pool.DefaultWorkers()
	}
	if s.MaxRetries < 0 {
		s.MaxRetries = 0
	} else if s.MaxRetries == 0 {
		s.MaxRetries = 1
	}
	if s.JobTimeout < 0 {
		s.JobTimeout = 0
	}
	if s.RetryBackoff < 0 {
		s.RetryBackoff = 0
	}
	if s.BreakerThreshold < 0 {
		s.BreakerThreshold = 0
	}
	if s.WatchdogFactor < 0 {
		s.WatchdogFactor = 0
	}
	if s.WatchdogFactor > 0 && s.JobTimeout <= 0 {
		return s, fmt.Errorf("campaign: WatchdogFactor requires JobTimeout > 0 (the watchdog deadline is JobTimeout×%d)", s.WatchdogFactor)
	}
	return s, nil
}

// Job is one unit of campaign work: one experiment on one module
// instance of one manufacturer.
type Job struct {
	Kind   string `json:"kind"`
	Mfr    string `json:"mfr"`
	Module int    `json:"module"`
}

// Key returns the job's stable identity, used for checkpoint matching
// and order-independent aggregation.
func (j Job) Key() string { return fmt.Sprintf("%s/%s/%d", j.Kind, j.Mfr, j.Module) }

// ModuleID returns the job's module identity ("mfr/index") — the unit
// the circuit breaker quarantines.
func (j Job) ModuleID() string { return fmt.Sprintf("%s/%d", j.Mfr, j.Module) }

// Expand lists every job of the spec in a deterministic canonical
// order (manufacturers as given, module indexes ascending).
func Expand(spec Spec) []Job {
	jobs := make([]Job, 0, len(spec.Mfrs)*spec.ModulesPerMfr)
	for _, mfr := range spec.Mfrs {
		for i := 0; i < spec.ModulesPerMfr; i++ {
			jobs = append(jobs, Job{Kind: spec.Kind, Mfr: mfr, Module: i})
		}
	}
	return jobs
}

// Record is the result of one job — the unit streamed to the JSONL
// checkpoint. Metrics and Series use maps so every experiment kind
// shares one schema; encoding/json sorts map keys, which keeps the
// serialized form deterministic.
type Record struct {
	Key     string `json:"key"`
	Kind    string `json:"kind"`
	Mfr     string `json:"mfr"`
	Module  int    `json:"module"`
	Seed    uint64 `json:"seed"`
	Pattern string `json:"pattern,omitempty"`
	// Attempts is how many runs the job needed (retries included).
	Attempts int `json:"attempts,omitempty"`
	// Err is set when the job exhausted its retries; failed records are
	// re-run on resume.
	Err string `json:"err,omitempty"`
	// Quarantined marks a failed record whose module tripped the
	// circuit breaker (Spec.BreakerThreshold consecutive failures);
	// quarantined modules are reported by name in the summary's
	// coverage accounting.
	Quarantined bool `json:"quarantined,omitempty"`
	// Metrics holds the scalar measurements of the module.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Series holds vector measurements (e.g. per-temperature BER).
	Series map[string][]float64 `json:"series,omitempty"`
	// Artifact carries an experiment shard's structured fragment
	// (internal/artifact, compact JSON) for experiment-kind jobs;
	// json.RawMessage keeps the bytes verbatim through checkpoint
	// round trips so resumed fragments merge bit-identically.
	Artifact json.RawMessage `json:"artifact,omitempty"`
	// Fence is the fencing token of the shard lease under which the
	// record was appended (internal/shard remote leases). Zero for
	// local-flock and single-process runs. The token never feeds the
	// aggregate — it exists so a checkpoint says which lease generation
	// published each record, and so a fenced zombie's appends are
	// attributable when forensics ever need them.
	Fence uint64 `json:"fence,omitempty"`
}

// Failed reports whether the record describes a failed job.
func (r Record) Failed() bool { return r.Err != "" }

// ModuleID returns the record's module identity ("mfr/index").
func (r Record) ModuleID() string { return fmt.Sprintf("%s/%d", r.Mfr, r.Module) }

// sortedKeys returns the record map's keys in canonical order.
func sortedKeys(records map[string]Record) []string {
	keys := make([]string, 0, len(records))
	for k := range records {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
