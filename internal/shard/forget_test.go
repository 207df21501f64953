package shard_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/shard"
)

// campaignKeys lists svc's lease keys belonging to campaign.
func campaignKeys(svc *leasesvc.Service, campaign string) []leasesvc.Key {
	var keys []leasesvc.Key
	for _, v := range svc.List() {
		if v.Campaign == campaign {
			keys = append(keys, v.Key)
		}
	}
	return keys
}

// TestCoordinateForgetsLeasesOfCompleteCampaign: a long-lived lease
// service (rhserved's) must not keep a finished campaign's entries for
// its whole lifetime. A complete merge drops them — and only them —
// and that stays safe: a rerun merges the same result, a late beat or
// release by the finished holder is answered ErrUnknown, and a fresh
// acquisition, which restarts the dropped key's tokens from 1, cannot
// write below the fence the campaign left on disk.
func TestCoordinateForgetsLeasesOfCompleteCampaign(t *testing.T) {
	spec := testSpec()
	single, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(t, single)
	hash := spec.IdentityHash()

	dir := t.TempDir()
	parts := shard.Partition(3)
	// Earlier generations left every fence at token 5, so this run's
	// acquisitions mint token 6.
	for _, a := range parts {
		if err := shard.RaiseFence(shard.FencePath(dir, a), 5); err != nil {
			t.Fatal(err)
		}
	}
	svc := leasesvc.NewService(time.Second)
	other := leasesvc.Key{Campaign: "other-campaign", Shard: 0, Of: 1}
	if _, err := svc.Acquire(context.Background(), other, "bystander", 0); err != nil {
		t.Fatal(err)
	}
	coordinate := func() {
		t.Helper()
		res, rep, err := shard.Coordinate(context.Background(), shard.Config{
			Dir: dir, Spec: spec, Shards: len(parts), Leases: svc,
			Spawn: inProcessSpawn(dir, spec, func(shard.Assignment, int) campaign.Runner { return pureRunner }),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete() {
			t.Fatalf("incomplete: %v", rep.Missing)
		}
		if got := summarize(t, res); !bytes.Equal(got, want) {
			t.Fatalf("summary differs:\n%s\nwant:\n%s", got, want)
		}
		if keys := campaignKeys(svc, hash); len(keys) != 0 {
			t.Fatalf("complete campaign left lease entries behind: %v", keys)
		}
		if _, ok, _ := svc.View(context.Background(), other); !ok {
			t.Fatal("another campaign's lease was dropped")
		}
	}
	coordinate()
	// Rerunning on the completed directory merges the same result.
	coordinate()

	key := leasesvc.Key{Campaign: hash, Shard: parts[0].Index, Of: parts[0].Of}
	fence := shard.FencePath(dir, parts[0])
	if err := svc.Beat(context.Background(), key, 6, leasesvc.Beat{Seq: 99}); !errors.Is(err, leasesvc.ErrUnknown) {
		t.Fatalf("late beat on a dropped key = %v, want ErrUnknown", err)
	}
	if err := svc.Release(context.Background(), key, 6); !errors.Is(err, leasesvc.ErrUnknown) {
		t.Fatalf("late release on a dropped key = %v, want ErrUnknown", err)
	}
	g, err := svc.Acquire(context.Background(), key, "latecomer", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Token >= 6 {
		t.Fatalf("dropped key minted token %d; the test expects a restart from 1", g.Token)
	}
	if err := shard.RaiseFence(fence, g.Token); !errors.Is(err, shard.ErrFenced) {
		t.Fatalf("raising the fence to re-minted token %d = %v, want ErrFenced", g.Token, err)
	}
	w := shard.NewFencedWriter(discardWriter{}, fence, g.Token)
	if err := w.WriteRecord(campaign.Record{Key: "A/0"}); !errors.Is(err, shard.ErrFenced) {
		t.Fatalf("append under re-minted token %d = %v, want ErrFenced", g.Token, err)
	}
}

// TestCoordinateKeepsLeasesOfDrainedCampaign: a drained run is not
// done — its lease entries carry the token floors its resume builds
// on, so they stay until the resumed run completes.
func TestCoordinateKeepsLeasesOfDrainedCampaign(t *testing.T) {
	spec := testSpec()
	spec.Workers = 1
	hash := spec.IdentityHash()
	dir := t.TempDir()
	svc := leasesvc.NewService(time.Second)

	drain := make(chan struct{})
	var once sync.Once
	slow := func(ctx context.Context, s campaign.Spec, j campaign.Job) (campaign.Record, error) {
		once.Do(func() { close(drain) })
		time.Sleep(5 * time.Millisecond)
		return pureRunner(ctx, s, j)
	}
	_, rep, err := shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2, Leases: svc, Drain: drain,
		Spawn: inProcessSpawn(dir, spec, func(shard.Assignment, int) campaign.Runner { return slow }),
	})
	if !errors.Is(err, campaign.ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	if rep == nil || rep.Complete() {
		t.Fatal("drained run should be incomplete")
	}
	if keys := campaignKeys(svc, hash); len(keys) != 2 {
		t.Fatalf("drained campaign kept %d lease entries, want 2: %v", len(keys), keys)
	}

	_, rep, err = shard.Coordinate(context.Background(), shard.Config{
		Dir: dir, Spec: spec, Shards: 2, Leases: svc,
		Spawn: inProcessSpawn(dir, spec, func(shard.Assignment, int) campaign.Runner { return pureRunner }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("resumed run incomplete: %v", rep.Missing)
	}
	if keys := campaignKeys(svc, hash); len(keys) != 0 {
		t.Fatalf("resumed-to-complete campaign left lease entries behind: %v", keys)
	}
}
