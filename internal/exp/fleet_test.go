package exp

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"rowhammer/internal/campaign"
)

// TestFleetKindsRegistered: every experiment in the registry has a
// campaign kind that resolves back to it.
func TestFleetKindsRegistered(t *testing.T) {
	for _, e := range All() {
		kind := FleetKind(e.ID)
		got := FleetExperiment(kind)
		if got == nil || got.ID != e.ID {
			t.Errorf("FleetExperiment(%s) = %v, want %s", kind, got, e.ID)
		}
	}
	if FleetExperiment(campaign.KindHCFirst) != nil {
		t.Error("measurement kind resolved to an experiment")
	}
	if FleetExperiment(FleetKind("nosuch")) != nil {
		t.Error("unknown experiment kind resolved")
	}
}

// TestFleetSpecIdentity: the campaign identity covers the experiment
// ID and its artifact schema version, so a checkpoint written under a
// different experiment — or an older artifact layout — cannot resume.
func TestFleetSpecIdentity(t *testing.T) {
	cfg := tinyConfig()
	e := *ByID("fig5")
	base := FleetSpec(e, cfg)
	if base.Kind != "exp:fig5" {
		t.Fatalf("kind = %s", base.Kind)
	}
	if got, want := len(campaign.Expand(base)), len(e.Shards); got != want {
		t.Fatalf("jobs = %d, want one per shard (%d)", got, want)
	}
	bumped := e
	bumped.Schema++
	if FleetSpec(bumped, cfg).IdentityHash() == base.IdentityHash() {
		t.Error("schema bump did not change campaign identity")
	}
	other := *ByID("fig4")
	if FleetSpec(other, cfg).IdentityHash() == base.IdentityHash() {
		t.Error("different experiments share a campaign identity")
	}
	scaled := cfg
	scaled.Scale.Hammers *= 2
	if FleetSpec(e, scaled).IdentityHash() == base.IdentityHash() {
		t.Error("scale change did not change campaign identity")
	}
}

// runFleetCampaign runs one experiment campaign in-process and merges
// the records.
func runFleetCampaign(t *testing.T, e Experiment, cfg Config, opts campaign.Options) (*campaign.Result, []byte) {
	t.Helper()
	spec := FleetSpec(e, cfg)
	if opts.Runner == nil {
		opts.Runner = FleetRunner(cfg)
	}
	res, err := campaign.Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatalf("campaign.Run: %v", err)
	}
	a, err := MergeFleet(e, res.Records)
	if err != nil {
		t.Fatalf("MergeFleet: %v", err)
	}
	buf, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return res, buf
}

// TestFleetCampaignBitIdentical: running an experiment through the
// campaign engine publishes byte-for-byte the artifact ComputeAll
// produces — the contract that makes rhfleet -exp and rhchar
// interchangeable.
func TestFleetCampaignBitIdentical(t *testing.T) {
	cfg := tinyConfig()
	e := *ByID("fig5")
	direct, err := e.ComputeAll(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Encode()
	if err != nil {
		t.Fatal(err)
	}
	_, got := runFleetCampaign(t, e, cfg, campaign.Options{})
	if !bytes.Equal(want, got) {
		t.Error("fleet artifact differs from ComputeAll artifact")
	}
}

// TestFleetCampaignResumeBitIdentical interrupts an experiment
// campaign partway (drain after the first finished job), resumes from
// the partial records, and requires the merged artifact to be
// bit-identical to the uninterrupted run — checkpointed fragments must
// survive the round trip verbatim.
func TestFleetCampaignResumeBitIdentical(t *testing.T) {
	cfg := tinyConfig()
	e := *ByID("fig5")
	_, want := runFleetCampaign(t, e, cfg, campaign.Options{})

	// First leg: serial workers, drain as soon as one record lands.
	serial := cfg
	serial.Workers = 1
	spec := FleetSpec(e, serial)
	drain := make(chan struct{})
	var once bool
	partial, err := campaign.Run(context.Background(), spec, campaign.Options{
		Runner: FleetRunner(serial),
		Drain:  drain,
		Progress: func(done, total int, rec campaign.Record) {
			if !once {
				once = true
				close(drain)
			}
		},
	})
	if err != campaign.ErrDrained {
		t.Fatalf("first leg: err = %v, want ErrDrained", err)
	}
	if len(partial.Records) == 0 || len(partial.Records) == len(e.Shards) {
		t.Fatalf("first leg finished %d of %d shards; want a strict subset", len(partial.Records), len(e.Shards))
	}

	// Round-trip the partial records through checkpoint encode/decode
	// so the resumed fragments are the bytes a real checkpoint carries.
	var ckpt bytes.Buffer
	cw := campaign.NewCheckpointWriter(&ckpt, spec)
	for _, key := range sortedRecordKeys(partial.Records) {
		if err := cw.WriteRecord(partial.Records[key]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := campaign.ReadCheckpointReport(&ckpt, campaign.ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 2 || rep.CorruptRecords != 0 {
		t.Fatalf("checkpoint: version %d, %d corrupt line(s); want a clean v2 stream", rep.Version, rep.CorruptRecords)
	}
	resumed := rep.Records

	res, got := runFleetCampaign(t, e, cfg, campaign.Options{Done: resumed})
	if res.Skipped != len(resumed) {
		t.Errorf("resume adopted %d records, want %d", res.Skipped, len(resumed))
	}
	if !bytes.Equal(want, got) {
		t.Error("resumed fleet artifact differs from uninterrupted run")
	}
}

func sortedRecordKeys(records map[string]campaign.Record) []string {
	keys := make([]string, 0, len(records))
	for k := range records {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
