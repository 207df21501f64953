// Package inject implements a seeded, fully deterministic fault
// injector for the characterization infrastructure. The paper's study
// ran 272 chips on FPGA SoftMC boards inside a PID-regulated chamber —
// an environment where transient link hiccups, torn readouts, thermal
// drift and wedged modules are routine — and the methodology has to
// survive them without corrupting results.
//
// The injector interposes at two layers, the two a binary wires up:
//
//   - WrapRunner wraps a campaign.Runner with the full fault profile:
//     command errors, latency spikes, torn readouts, guardband drift
//     and persistently-dead modules, keyed on (seed, job, attempt).
//   - WrapTransport (netchaos.go) wraps the lease client's HTTP path
//     with seeded drops, one-way losses, 503s, latency and partitions.
//
// Every fault decision is a pure function of (profile seed, identity,
// attempt or op counter) via internal/rng, so a faulty run is exactly
// reproducible — the property the chaos suite uses to prove that a
// campaign under any transient-fault profile aggregates bit-identical
// to a fault-free run.
package inject

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"rowhammer/internal/rng"
)

// Fault channels: each fault class draws from its own keyed stream so
// enabling one class never perturbs another's decisions.
const (
	chCmd     = "cmd"
	chRead    = "read"
	chLatency = "latency"
	chDrift   = "drift"
)

// Sentinel errors for the injected fault classes. Transient faults
// (link, CRC, drift, latency-induced deadline) heal on retry; a dead
// module never does.
var (
	ErrLinkFault  = errors.New("inject: transient FPGA link fault")
	ErrReadCRC    = errors.New("inject: torn readout (CRC mismatch)")
	ErrDeadModule = errors.New("inject: dead module")
)

// Profile configures deterministic fault injection. The zero value
// injects nothing; rates are per-decision probabilities in [0, 1].
type Profile struct {
	// Name labels the profile in logs and summaries.
	Name string
	// Seed keys every fault decision; two runs with the same seed see
	// the exact same faults.
	Seed uint64

	// CmdErrRate is the probability of a transient command/link error
	// per job attempt.
	CmdErrRate float64
	// ReadCorruptRate is the probability of a torn/corrupted readout,
	// detected CRC-style and surfaced as an error.
	ReadCorruptRate float64
	// LatencySpikeRate and LatencySpike inject wall-clock stalls; with
	// a per-job deadline a long spike turns into a timed-out attempt.
	LatencySpikeRate float64
	LatencySpike     time.Duration
	// DriftRate is the probability an attempt's measurement is
	// invalidated by thermal drift beyond the ±0.5 °C guardband.
	DriftRate float64

	// MaxFaultAttempts bounds which attempts of a job are eligible for
	// transient faults: attempts beyond it always run clean, so any
	// campaign with MaxRetries ≥ MaxFaultAttempts converges to the
	// fault-free result (the bit-identical invariant). Zero means 1.
	MaxFaultAttempts int

	// DeadModules lists module identities ("mfr/index") that fail
	// every attempt — wedged boards only the circuit breaker handles.
	DeadModules []string
}

// Transient returns a profile of recoverable infrastructure noise:
// command errors, torn readouts and guardband drift, healing by the
// second attempt.
func Transient(seed uint64) *Profile {
	return &Profile{
		Name: "transient", Seed: seed,
		CmdErrRate: 0.25, ReadCorruptRate: 0.2, DriftRate: 0.15,
		MaxFaultAttempts: 1,
	}
}

// Latency returns a profile of pure wall-clock stalls.
func Latency(seed uint64, spike time.Duration) *Profile {
	return &Profile{Name: "latency", Seed: seed, LatencySpikeRate: 0.3, LatencySpike: spike, MaxFaultAttempts: 1}
}

// Drift returns a profile of thermal-drift faults only.
func Drift(seed uint64) *Profile {
	return &Profile{Name: "drift", Seed: seed, DriftRate: 0.3, MaxFaultAttempts: 1}
}

// Chaos returns the kitchen-sink transient profile: command errors,
// latency spikes, torn readouts and drift, eligible on the first two
// attempts of every job.
func Chaos(seed uint64) *Profile {
	return &Profile{
		Name: "chaos", Seed: seed,
		CmdErrRate: 0.3, ReadCorruptRate: 0.25, DriftRate: 0.2,
		LatencySpikeRate: 0.25, LatencySpike: time.Millisecond,
		MaxFaultAttempts: 2,
	}
}

// Dead returns a profile where the listed modules ("mfr/index") are
// persistently wedged and everything else is healthy.
func Dead(seed uint64, modules ...string) *Profile {
	p := &Profile{Name: "dead", Seed: seed}
	p.DeadModules = append(p.DeadModules, modules...)
	sort.Strings(p.DeadModules)
	return p
}

// Active reports whether the profile can inject anything.
func (p *Profile) Active() bool {
	if p == nil {
		return false
	}
	return p.CmdErrRate > 0 || p.ReadCorruptRate > 0 || p.LatencySpikeRate > 0 ||
		p.DriftRate > 0 || len(p.DeadModules) > 0
}

// maxFaultAttempts returns the effective transient-fault attempt bound.
func (p *Profile) maxFaultAttempts() int {
	if p.MaxFaultAttempts < 1 {
		return 1
	}
	return p.MaxFaultAttempts
}

// dead reports whether the module identity ("mfr/index") is wedged.
func (p *Profile) dead(module string) bool {
	for _, m := range p.DeadModules {
		if m == module {
			return true
		}
	}
	return false
}

// hitAttempt decides one per-attempt transient fault: a pure function
// of (seed, channel, job key, attempt), eligible only on the first
// MaxFaultAttempts attempts.
func (p *Profile) hitAttempt(rate float64, channel, key string, attempt int) bool {
	if rate <= 0 || attempt > p.maxFaultAttempts() {
		return false
	}
	h := rng.Hash64(p.Seed, rng.HashString(channel), rng.HashString(key), uint64(attempt))
	return rng.Uniform01(h) < rate
}

// String renders the profile for logs.
func (p *Profile) String() string {
	if p == nil {
		return "none"
	}
	if p.Name != "" {
		return p.Name
	}
	return "custom"
}

// Parse builds a profile from its CLI syntax: "+"-separated terms of
// named profiles and options —
//
//	none | transient | latency | drift | chaos
//	dead=MFR/IDX[,MFR/IDX...]
//	seed=N
//
// e.g. "chaos", "transient+seed=7", "chaos+dead=A/0,C/2". "none" or
// the empty string yield a nil profile (no injection).
func Parse(s string) (*Profile, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	merged := &Profile{Name: s, Seed: 1}
	seen := false
	for _, term := range strings.Split(s, "+") {
		term = strings.TrimSpace(term)
		switch {
		case term == "transient":
			merged.merge(Transient(merged.Seed))
			seen = true
		case term == "latency":
			merged.merge(Latency(merged.Seed, 2*time.Millisecond))
			seen = true
		case term == "drift":
			merged.merge(Drift(merged.Seed))
			seen = true
		case term == "chaos":
			merged.merge(Chaos(merged.Seed))
			seen = true
		case strings.HasPrefix(term, "dead="):
			mods := strings.Split(strings.TrimPrefix(term, "dead="), ",")
			for _, m := range mods {
				if m = strings.TrimSpace(m); m != "" {
					merged.DeadModules = append(merged.DeadModules, m)
				}
			}
			if len(merged.DeadModules) == 0 {
				return nil, fmt.Errorf("inject: %q lists no modules", term)
			}
			sort.Strings(merged.DeadModules)
			seen = true
		case strings.HasPrefix(term, "seed="):
			n, err := strconv.ParseUint(strings.TrimPrefix(term, "seed="), 0, 64)
			if err != nil {
				return nil, fmt.Errorf("inject: bad seed in %q: %w", term, err)
			}
			merged.Seed = n
		default:
			return nil, fmt.Errorf("inject: unknown fault-profile term %q (have none, transient, latency, drift, chaos, dead=mfr/idx, seed=n)", term)
		}
	}
	if !seen {
		return nil, fmt.Errorf("inject: profile %q sets options but no fault class", s)
	}
	return merged, nil
}

// merge folds o's fault classes into p (maximum of rates, union of
// dead modules), keeping p's seed.
func (p *Profile) merge(o *Profile) {
	p.CmdErrRate = maxf(p.CmdErrRate, o.CmdErrRate)
	p.ReadCorruptRate = maxf(p.ReadCorruptRate, o.ReadCorruptRate)
	p.LatencySpikeRate = maxf(p.LatencySpikeRate, o.LatencySpikeRate)
	if o.LatencySpike > p.LatencySpike {
		p.LatencySpike = o.LatencySpike
	}
	p.DriftRate = maxf(p.DriftRate, o.DriftRate)
	if o.MaxFaultAttempts > p.MaxFaultAttempts {
		p.MaxFaultAttempts = o.MaxFaultAttempts
	}
	p.DeadModules = append(p.DeadModules, o.DeadModules...)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// sleepCtx blocks for d or until ctx is done, returning ctx's error in
// the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
