package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	rh "rowhammer"
	"rowhammer/internal/exp"
	"rowhammer/internal/server"
)

// committed is digests.json: artifact digests of the head of each
// spec stream at the default seed, computed through the library path.
type committed struct {
	Seed      uint64              `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

func loadCommitted(path string) (*committed, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c committed
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// expected returns the reference digest of campaign i: the committed
// one when the seed and index are covered, otherwise a recomputation
// through the library path — rh.RunCampaign for measurement kinds and
// the experiment's ComputeAll for paper experiments — never through
// rhserved or the shard layer.
func expected(ctx context.Context, ref *committed, w workload, seed uint64, i int) (string, error) {
	if ref != nil && ref.Seed == seed {
		if list := ref.Workloads[w.digestsOf]; i < len(list) {
			return list[i], nil
		}
	}
	b, err := libraryArtifact(ctx, w.spec(seed, i))
	if err != nil {
		return "", err
	}
	return digestOf(b), nil
}

// libraryArtifact computes a campaign's artifact bytes in-process.
func libraryArtifact(ctx context.Context, wire server.Spec) ([]byte, error) {
	spec, err := wire.CampaignSpec()
	if err != nil {
		return nil, err
	}
	if e := server.ResolveExperiment(spec.Kind); e != nil {
		// The experiment config rhserved resolves the spec to.
		cfg := exp.Config{Scale: spec.Scale, Geometry: spec.Geometry, Seed: spec.Seed, Workers: spec.Workers}
		a, err := e.ComputeAll(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return a.Encode()
	}
	res, err := rh.RunCampaign(ctx, spec, rh.CampaignOptions{})
	if err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: %d job(s) failed", spec.Kind, spec.Seed, res.Failed)
	}
	b, err := res.Summary.MarshalIndent()
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeCommitted regenerates digests.json: the first committedCampaigns
// campaigns at the default seed of every workload that owns its digest
// list.
func writeCommitted(ctx context.Context, path string) error {
	c := committed{Seed: defaultSeed, Workloads: map[string][]string{}}
	for _, w := range workloads {
		if w.digestsOf != w.name {
			continue
		}
		for i := 0; i < committedCampaigns; i++ {
			b, err := libraryArtifact(ctx, w.spec(defaultSeed, i))
			if err != nil {
				return fmt.Errorf("%s campaign %d: %w", w.name, i, err)
			}
			c.Workloads[w.name] = append(c.Workloads[w.name], digestOf(b))
		}
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
