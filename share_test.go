package rowhammer

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"rowhammer/internal/campaign"
	"rowhammer/internal/pool"
)

// TestModuleRunnerRecordsInvariantToShare: the measurement runner
// fans each job out over pool.Share() inner workers, a count that
// depends on how many engine workers the process runs at the time.
// Its records must be byte-identical whether the share is NumCPU (no
// other engine running) or 1 (every CPU's slot held elsewhere). On a
// 1-CPU machine both runs use one inner worker.
func TestModuleRunnerRecordsInvariantToShare(t *testing.T) {
	if n := pool.Reserved(); n != 0 {
		t.Fatalf("%d worker slots held before the test; want none", n)
	}
	records := func(wantShare int) [][]byte {
		var out [][]byte
		for _, kind := range CampaignKinds() {
			spec := tinyFleetSpec(kind, 1)
			spec.Mfrs = []string{"A", "C"}
			cs, runner, err := CampaignEngine(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, job := range campaign.Expand(cs) {
				if got := pool.Share(); got != wantShare {
					t.Fatalf("share = %d, want %d", got, wantShare)
				}
				rec, err := runner(context.Background(), cs, job)
				if err != nil {
					t.Fatalf("%s: %v", job.Key(), err)
				}
				b, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, b)
			}
		}
		return out
	}
	wide := records(pool.DefaultWorkers())
	var narrow [][]byte
	func() {
		pool.Reserve(pool.DefaultWorkers())
		defer pool.Release(pool.DefaultWorkers())
		narrow = records(1)
	}()
	for i := range wide {
		if !bytes.Equal(wide[i], narrow[i]) {
			t.Fatalf("record %d differs between share %d and share 1:\n%s\n%s", i, pool.DefaultWorkers(), wide[i], narrow[i])
		}
	}
}
