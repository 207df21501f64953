package exp

import (
	"context"
	"fmt"
	"strings"

	"rowhammer/internal/artifact"
	"rowhammer/internal/campaign"
	"rowhammer/internal/rng"
)

// Fleet bridge: every experiment can run as a campaign of kind
// "exp:<id>", so the fleet engine's worker pools, retry/backoff,
// circuit breaker, fault injection, watchdog and checkpoint/resume
// apply to paper experiments exactly as they do to the per-module
// measurement cores. One campaign job is one experiment shard; the
// shard's artifact fragment rides in Record.Artifact verbatim, and
// MergeFleet reassembles the full artifact bit-identically to
// ComputeAll. The experiment registry (All, ByID) is the only list of
// these kinds: server.ResolveExperiment maps a requested kind to an
// experiment before FleetSpec builds its campaign.

// fleetKindPrefix namespaces experiment kinds away from the built-in
// measurement kinds (hcfirst, ber, ...).
const fleetKindPrefix = "exp:"

// FleetKind returns the campaign kind of an experiment ID.
func FleetKind(id string) string { return fleetKindPrefix + id }

// FleetExperiment resolves a campaign kind back to its experiment,
// or nil when the kind is not an experiment kind.
func FleetExperiment(kind string) *Experiment {
	id := strings.TrimPrefix(kind, fleetKindPrefix)
	if id == kind {
		return nil
	}
	return ByID(id)
}

// FleetSpec lowers an experiment and config into a campaign spec whose
// jobs are the experiment's shards (one module instance per shard).
// The measurement identity — scale, geometry and the experiment's
// artifact schema version — is folded into the fingerprint, so a
// checkpoint written under a different scale or an older artifact
// layout cannot silently resume.
func FleetSpec(e Experiment, cfg Config) campaign.Spec {
	cfg = cfg.normalize()
	spec := campaign.Spec{
		Kind:          FleetKind(e.ID),
		Mfrs:          append([]string(nil), e.Shards...),
		ModulesPerMfr: 1,
		Seed:          cfg.Seed,
		Workers:       cfg.Workers,
		Fingerprint: fmt.Sprintf("%016x", rng.HashString(fmt.Sprintf(
			"scale:%+v|geom:%+v|artifact-schema:%d", cfg.Scale, cfg.Geometry, e.Schema))),
	}
	if n, err := spec.Normalize(); err == nil {
		spec = n
	}
	return spec
}

// FleetRunner returns the campaign runner that executes experiment
// shards: each job resolves its kind's experiment, computes the
// shard's fragment under the campaign context (so timeouts, watchdog
// cancellation and drain all reach the measurement loops), and embeds
// the fragment's compact encoding in the record.
func FleetRunner(cfg Config) campaign.Runner {
	return func(ctx context.Context, spec campaign.Spec, job campaign.Job) (campaign.Record, error) {
		e := FleetExperiment(job.Kind)
		if e == nil {
			return campaign.Record{}, fmt.Errorf("exp: job kind %q is not a registered experiment kind", job.Kind)
		}
		run := cfg
		run.Seed = spec.Seed
		frag, err := e.Compute(ctx, run, job.Mfr)
		if err != nil {
			return campaign.Record{}, err
		}
		buf, err := frag.EncodeCompact()
		if err != nil {
			return campaign.Record{}, err
		}
		return campaign.Record{Seed: spec.Seed, Artifact: buf}, nil
	}
}

// MergeFleet reassembles an experiment's full artifact from campaign
// records. Fragment bytes come back through Record.Artifact exactly as
// written, and artifact.Merge orders fragments canonically, so the
// result is bit-identical to ComputeAll on the same config no matter
// what order — or how many interrupted resumes — produced the records.
func MergeFleet(e Experiment, records map[string]campaign.Record) (*artifact.Artifact, error) {
	frags := make([]*artifact.Artifact, 0, len(records))
	for _, rec := range records {
		if rec.Failed() {
			return nil, fmt.Errorf("exp: shard %s failed: %s", rec.Key, rec.Err)
		}
		if len(rec.Artifact) == 0 {
			return nil, fmt.Errorf("exp: record %s carries no artifact fragment", rec.Key)
		}
		f, err := artifact.Decode(rec.Artifact)
		if err != nil {
			return nil, fmt.Errorf("exp: record %s: %w", rec.Key, err)
		}
		frags = append(frags, f)
	}
	if len(frags) != len(e.Shards) {
		return nil, fmt.Errorf("exp: %s artifact incomplete: %d of %d shards recorded", e.ID, len(frags), len(e.Shards))
	}
	return artifact.Merge(e.ID, e.Schema, frags...)
}
