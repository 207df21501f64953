package shard_test

import (
	"context"
	"path/filepath"
	"testing"

	"rowhammer/internal/campaign"
	"rowhammer/internal/shard"
)

// BenchmarkLoadShardCheckpoint times one read of a finished shard's
// checkpoint — 1 of 4 shards of a 16-job campaign, a few KB of
// records — as the coordinator reads it when the shard exits and the
// merge reads it again. B/op is the figure to watch: the reader's
// line buffer grows with the longest line, so a read of a small file
// must stay small.
func BenchmarkLoadShardCheckpoint(b *testing.B) {
	spec, err := campaign.Spec{Kind: campaign.KindHCFirst, ModulesPerMfr: 4, Seed: 1, Workers: 1}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	a := shard.Assignment{Index: 0, Of: 4}
	path := filepath.Join(b.TempDir(), "shard.ckpt")
	cw, _, err := campaign.OpenCheckpoint(path, spec, a.Index, a.Of)
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range a.Jobs(spec) {
		rec, err := pureRunner(context.Background(), spec, j)
		if err != nil {
			b.Fatal(err)
		}
		rec.Key, rec.Kind, rec.Mfr, rec.Module, rec.Attempts = j.Key(), j.Kind, j.Mfr, j.Module, 1
		if err := cw.WriteRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := campaign.LoadCheckpointReport(path, campaign.ResumeOptions{ExpectSpec: &spec})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Records) != 4 {
			b.Fatalf("loaded %d records, want 4", len(rep.Records))
		}
	}
}
