package main

import (
	"fmt"

	"rowhammer/internal/server"
)

// workload is one traffic mix: a rotation of campaign kinds whose
// seeds derive from the workload seed, so every submit is a new
// campaign and the same seed always yields the same spec stream.
type workload struct {
	name string
	// kinds is the rotation of campaign kinds, one per submit.
	kinds []string
	// measurement selects the per-module measurement kinds (mfrs A–D ×
	// 4 modules); otherwise kinds are paper experiments that shard
	// themselves.
	measurement bool
	// shards > 1 fans every campaign across that many shard workers.
	shards int
	// warmup campaigns run before the timed window opens.
	warmup int
	// replay is how many campaigns from the head of the stream the
	// traced run replays in-process; fixed so its exact counts depend
	// on the seed alone.
	replay int
	// tailPct is the latency percentile reported as campaign_s.tail:
	// the highest one that keeps at least ten samples beyond it at this
	// workload's campaign count.
	tailPct float64
	// digestsOf names the workload whose committed digests this one
	// must reproduce byte for byte.
	digestsOf string
}

var measureKinds = []string{"hcfirst", "ber", "wcdp", "spatial"}

var workloads = []workload{
	{name: "measure-mix", kinds: measureKinds, measurement: true, warmup: 4, replay: 8, tailPct: 80, digestsOf: "measure-mix"},
	{name: "sharded-mix", kinds: measureKinds, measurement: true, shards: 4, warmup: 4, replay: 8, tailPct: 65, digestsOf: "measure-mix"},
	{name: "paper-experiments", kinds: []string{"fig4", "fig5", "fig7", "fig11", "fig14", "table3"}, warmup: 2, replay: 6, tailPct: 70, digestsOf: "paper-experiments"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have measure-mix, sharded-mix, paper-experiments, all)", name)
}

// spec returns the wire spec of the i-th campaign of the stream. The
// server receives nothing else: only the shipped defaults shape how it
// runs the campaign.
func (w workload) spec(seed uint64, i int) server.Spec {
	s := server.Spec{
		Kind:   w.kinds[i%len(w.kinds)],
		Seed:   campaignSeed(seed, i),
		Scale:  "tiny",
		Shards: w.shards,
	}
	if w.measurement {
		s.Mfrs = []string{"A", "B", "C", "D"}
		s.ModulesPerMfr = 4
	}
	return s
}

// campaignSeed derives the i-th campaign seed from the workload seed
// (splitmix64), never zero so no campaign falls back to the default
// seed.
func campaignSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}
