// Package server is the campaign-as-a-service layer behind rhserved:
// a campaign manager that runs multiple concurrent campaigns on the
// internal/campaign engine with FIFO scheduling, per-campaign worker
// budgets and checkpoint resume, plus the HTTP API that accepts
// campaign specs, streams progress over SSE, and serves queries over
// the indexed artifact store.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	rh "rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/exp"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// Spec is the wire form of a campaign: the POST /v1/campaigns body
// and, identically, the rhfleet -spec file schema. One schema for
// both entry points means a spec file tested on the CLI submits to
// the daemon unchanged.
type Spec struct {
	// Kind is a measurement kind (hcfirst, ber, wcdp, spatial) or a
	// paper experiment ID (fig5, table3, ...; exp: prefix forces the
	// experiment on a name collision).
	Kind string `json:"kind"`
	// Mfrs lists manufacturer profiles (measurement kinds only;
	// experiment campaigns shard themselves).
	Mfrs []string `json:"mfrs"`
	// ModulesPerMfr is the fleet width per manufacturer.
	ModulesPerMfr int `json:"modules_per_mfr"`
	// Seed is the master seed; module seeds derive from it.
	Seed uint64 `json:"seed"`
	// Scale names the measurement scale: tiny, default, paper.
	Scale string `json:"scale"`
	// Temps is the BER temperature grid in °C.
	Temps []float64 `json:"temps"`
	// Workers bounds the campaign's worker pool (0 = one per CPU,
	// subject to the server's per-campaign budget).
	Workers int `json:"workers"`
	// MaxRetries, JobTimeoutMS, RetryBackoffMS, BreakerThreshold and
	// WatchdogFactor are the hardening knobs, same semantics as the
	// rhfleet flags.
	MaxRetries       int   `json:"max_retries"`
	JobTimeoutMS     int64 `json:"job_timeout_ms"`
	RetryBackoffMS   int64 `json:"retry_backoff_ms"`
	BreakerThreshold int   `json:"breaker_threshold"`
	WatchdogFactor   int   `json:"watchdog_factor"`
	// Shards, when > 1, fans the campaign out across that many shards
	// placed on the daemon's fleet (internal/shard), each with its own
	// checkpoint and lease. An execution knob like Workers:
	// it is excluded from the campaign's identity, and the merged
	// result is byte-identical to an unsharded run of the same spec.
	Shards int `json:"shards,omitempty"`
}

// ReadSpec reads a wire spec file: an rhfleet -spec file, or the
// spec.json persisted in a campaign or shard directory. It decodes
// exactly as POST /v1/campaigns does, so a file with a typo'd field
// fails here rather than silently running with defaults.
func ReadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	ws, err := decodeSpec(nil, f, DefaultMaxSpecBytes)
	if err != nil {
		return ws, fmt.Errorf("parsing %s: %w", path, err)
	}
	return ws, nil
}

// decodeSpec is the one wire-spec decoder behind both entry points:
// at most limit bytes (an *http.MaxBytesError beyond), no unknown
// fields, and nothing but whitespace after the spec. w is the HTTP
// response the bound is reported to, or nil outside a handler.
func decodeSpec(w http.ResponseWriter, body io.ReadCloser, limit int64) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return spec, nil
	case err != nil:
		return spec, err
	default:
		return spec, errors.New("unexpected data after the spec")
	}
}

// CampaignSpec lowers the wire spec to the library spec, resolving
// the named scale.
func (s Spec) CampaignSpec() (rh.CampaignSpec, error) {
	spec := rh.CampaignSpec{
		Kind:             s.Kind,
		Mfrs:             s.Mfrs,
		ModulesPerMfr:    s.ModulesPerMfr,
		Seed:             s.Seed,
		Temps:            s.Temps,
		Workers:          s.Workers,
		MaxRetries:       s.MaxRetries,
		JobTimeout:       time.Duration(s.JobTimeoutMS) * time.Millisecond,
		RetryBackoff:     time.Duration(s.RetryBackoffMS) * time.Millisecond,
		BreakerThreshold: s.BreakerThreshold,
		WatchdogFactor:   s.WatchdogFactor,
	}
	name := s.Scale
	if name == "" {
		name = "default"
	}
	sc, geom, ok := rh.NamedScale(name)
	if !ok {
		return spec, fmt.Errorf("unknown scale %q (tiny, default, paper)", name)
	}
	spec.Scale, spec.Geometry = sc, geom
	return spec, nil
}

// Resolved is a campaign ready for the engine: the normalized engine
// spec, its runner, and — for experiment kinds — the experiment whose
// merged artifact is the campaign's deliverable.
type Resolved struct {
	// Spec is the normalized engine spec; its IdentityHash names the
	// campaign.
	Spec campaign.Spec
	// Runner executes the campaign's jobs.
	Runner campaign.Runner
	// Exp is non-nil for experiment kinds (exp:fig5, ...); nil for
	// the per-module measurement kinds.
	Exp *exp.Experiment
}

// Resolve validates a campaign spec and lowers it to the engine.
// Measurement kinds (hcfirst, ber, wcdp, spatial) expand mfrs ×
// modules and win any name collision; everything else resolves as a
// paper experiment, which shards itself (one job per shard). The exp:
// prefix forces the experiment (e.g. exp:wcdp runs the Table 1 survey
// experiment rather than the wcdp measurement kind). All validation —
// unknown kinds, bad temperature grids, watchdog without timeout —
// happens here, before any job runs or any file is touched.
func Resolve(spec rh.CampaignSpec) (Resolved, error) {
	if e := ResolveExperiment(spec.Kind); e != nil {
		ecfg := exp.Config{Scale: spec.Scale, Geometry: spec.Geometry, Seed: spec.Seed, Workers: spec.Workers}
		cs := exp.FleetSpec(*e, ecfg)
		cs.MaxRetries = spec.MaxRetries
		cs.JobTimeout = spec.JobTimeout
		cs.RetryBackoff = spec.RetryBackoff
		cs.BreakerThreshold = spec.BreakerThreshold
		cs.WatchdogFactor = spec.WatchdogFactor
		n, err := cs.Normalize()
		if err != nil {
			return Resolved{}, err
		}
		return Resolved{Spec: n, Runner: exp.FleetRunner(ecfg), Exp: e}, nil
	}
	cs, runner, err := rh.CampaignEngine(spec)
	if err != nil {
		return Resolved{}, err
	}
	return Resolved{Spec: cs, Runner: runner}, nil
}

// Deliverable returns the bytes a finished campaign publishes: for an
// experiment, its merged artifact in format (json, tsv or text,
// exp.Experiment.Encode) — the json bytes equal `rhchar -format json`;
// for a measurement kind, the indented fleet summary plus a newline,
// whatever the format. rhserved stores these bytes and rhfleet prints
// and publishes them, so every path serves the same deliverable.
func (r Resolved) Deliverable(res *campaign.Result, format string) ([]byte, error) {
	if r.Exp == nil {
		summary, err := campaign.Aggregate(res).MarshalIndent()
		if err != nil {
			return nil, err
		}
		return append(summary, '\n'), nil
	}
	a, err := exp.MergeFleet(*r.Exp, res.Records)
	if err != nil {
		return nil, err
	}
	return r.Exp.Encode(a, format)
}

// ResolvePlacement resolves the campaign a fleet placement belongs to:
// the wire spec persisted in the placement's shard directory, checked
// against the campaign identity the placement names, so a worker never
// runs a shard of a campaign other than the one it was placed for.
// Every fleet member — rhfleet -worker and rhserved's own — resolves
// its placements here.
func ResolvePlacement(p leasesvc.Placement) (Resolved, error) {
	path := shard.SpecPath(p.Dir)
	ws, err := ReadSpec(path)
	if err != nil {
		return Resolved{}, err
	}
	raw, err := ws.CampaignSpec()
	if err != nil {
		return Resolved{}, err
	}
	rsv, err := Resolve(raw)
	if err != nil {
		return Resolved{}, err
	}
	if got := rsv.Spec.IdentityHash(); got != p.Campaign {
		return Resolved{}, fmt.Errorf("placement names campaign %s but %s resolves to %s", p.Campaign, path, got)
	}
	return rsv, nil
}

// ResolveExperiment maps a campaign kind to a paper experiment, or
// nil for the measurement kinds. Measurement kinds win a bare-name
// collision (the "wcdp" measurement kind predates the wcdp
// experiment); the exp: prefix selects the experiment explicitly.
func ResolveExperiment(kind string) *exp.Experiment {
	if e := exp.FleetExperiment(kind); e != nil {
		return e
	}
	for _, k := range rh.CampaignKinds() {
		if kind == k {
			return nil
		}
	}
	return exp.ByID(kind)
}
