// The chaos suite: the hardened campaign engine driven through the
// deterministic fault injector (internal/inject). It proves the key
// robustness invariant — because measurement cores are pure functions
// of (spec, job) and retries are deterministic, a campaign run under
// any *transient* fault profile produces a fleet summary bit-identical
// to the fault-free run, while *dead* modules degrade gracefully into
// a summary that names exactly which coverage was lost.
package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/inject"
)

// pureRunner is deterministic in (spec seed, job) — the property the
// bit-identical invariant rests on, shared by the real measurement
// cores.
func pureRunner(ctx context.Context, spec campaign.Spec, job campaign.Job) (campaign.Record, error) {
	seed := spec.Seed ^ uint64(len(job.Mfr))<<32 ^ uint64(job.Module)*2654435761
	return campaign.Record{
		Seed:    seed,
		Pattern: "checkered",
		Metrics: map[string]float64{"hc_min": float64(seed%100_000) + 512, "rows": 24},
		Series:  map[string][]float64{"hc": {float64(seed % 7), float64(seed % 13)}},
	}, nil
}

// chaosSpec is a 16-module fleet with the hardening knobs engaged:
// per-attempt deadlines, deterministic backoff, bounded retries.
func chaosSpec() campaign.Spec {
	return campaign.Spec{
		Kind:          campaign.KindHCFirst,
		Mfrs:          []string{"A", "B", "C", "D"},
		ModulesPerMfr: 4,
		Seed:          42,
		Workers:       8,
		MaxRetries:    4,
		RetryBackoff:  200 * time.Microsecond,
		JobTimeout:    5 * time.Second,
	}
}

func summarize(t *testing.T, res *campaign.Result) []byte {
	t.Helper()
	b, err := campaign.Aggregate(res).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustParseFaults builds a fault profile the way -fault-profile does.
func mustParseFaults(t *testing.T, s string) *inject.Profile {
	t.Helper()
	p, err := inject.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestChaosTransientProfileBitIdentical is the acceptance invariant:
// command errors + latency spikes + torn readouts + thermal drift,
// all transient, must aggregate bit-identically to a fault-free run.
func TestChaosTransientProfileBitIdentical(t *testing.T) {
	spec := chaosSpec()

	ref, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	refSum := summarize(t, ref)

	profile := inject.Chaos(7)
	faulty := inject.WrapRunner(pureRunner, profile)
	res, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: faulty})
	if err != nil {
		t.Fatalf("chaos run should recover every transient fault, got %v", err)
	}
	if res.Retried == 0 {
		t.Fatal("chaos profile injected no faults — the test is vacuous")
	}
	gotSum := summarize(t, res)
	if !bytes.Equal(refSum, gotSum) {
		t.Fatalf("summary under transient faults differs from fault-free run:\nref: %s\ngot: %s", refSum, gotSum)
	}

	// The injection itself is deterministic: a second chaos run sees
	// the exact same faults.
	res2, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: inject.WrapRunner(pureRunner, inject.Chaos(7))})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Retried != res.Retried {
		t.Fatalf("fault injection not deterministic: %d vs %d jobs retried", res.Retried, res2.Retried)
	}
	for key, rec := range res.Records {
		if res2.Records[key].Attempts != rec.Attempts {
			t.Fatalf("job %s: attempts %d vs %d across identical chaos runs", key, rec.Attempts, res2.Records[key].Attempts)
		}
	}
}

// TestChaosLatencySpikeDeadlineRecovers: a spike longer than the
// per-attempt deadline turns into a timed-out first attempt; the
// retry runs clean and the summary stays bit-identical.
func TestChaosLatencySpikeDeadlineRecovers(t *testing.T) {
	spec := chaosSpec()
	spec.JobTimeout = 25 * time.Millisecond
	spec.RetryBackoff = 0

	ref, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}

	profile := &inject.Profile{
		Name: "stall", Seed: 3,
		LatencySpikeRate: 1, LatencySpike: 10 * time.Second, // far beyond the deadline
		MaxFaultAttempts: 1,
	}
	res, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: inject.WrapRunner(pureRunner, profile)})
	if err != nil {
		t.Fatalf("deadline should convert stalls into retries, got %v", err)
	}
	for key, rec := range res.Records {
		if rec.Attempts != 2 {
			t.Fatalf("job %s: attempts = %d, want 2 (deadline-killed first attempt + clean retry)", key, rec.Attempts)
		}
	}
	if ref2, got := summarize(t, ref), summarize(t, res); !bytes.Equal(ref2, got) {
		t.Fatalf("summary after deadline recoveries differs:\nref: %s\ngot: %s", ref2, got)
	}
}

// TestChaosDeadModulesQuarantinedWithCoverage: persistently-dead
// modules trip the circuit breaker and the summary names exactly
// which coverage was lost — graceful degradation, never a silently
// shrunk population.
func TestChaosDeadModulesQuarantinedWithCoverage(t *testing.T) {
	spec := chaosSpec()
	spec.BreakerThreshold = 2
	spec.RetryBackoff = 0

	profile := mustParseFaults(t, "dead=A/0,C/2+seed=7")
	res, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: inject.WrapRunner(pureRunner, profile)})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("dead modules must surface as a quarantine error, got %v", err)
	}
	if res.Completed != 14 || res.Failed != 2 || res.Quarantined != 2 {
		t.Fatalf("completed/failed/quarantined = %d/%d/%d, want 14/2/2", res.Completed, res.Failed, res.Quarantined)
	}
	if got := res.QuarantinedModules(); len(got) != 2 || got[0] != "A/0" || got[1] != "C/2" {
		t.Fatalf("quarantined modules = %v, want [A/0 C/2]", got)
	}

	sum := campaign.Aggregate(res)
	if sum.Coverage == nil {
		t.Fatal("degraded summary must carry coverage accounting")
	}
	c := sum.Coverage
	if c.Completed != 14 || c.Quarantined != 2 || c.Jobs != 16 {
		t.Fatalf("coverage = %+v, want 14 completed / 2 quarantined of 16", c)
	}
	if len(c.QuarantinedModules) != 2 || c.QuarantinedModules[0] != "A/0" || c.QuarantinedModules[1] != "C/2" {
		t.Fatalf("coverage names %v, want [A/0 C/2]", c.QuarantinedModules)
	}
	// The breaker must have cut retries short: threshold 2, not the
	// 5 attempts MaxRetries would allow.
	for _, key := range []string{"hcfirst/A/0", "hcfirst/C/2"} {
		rec := res.Records[key]
		if !rec.Quarantined || rec.Attempts != 2 {
			t.Fatalf("record %s = %+v, want quarantined after 2 attempts", key, rec)
		}
	}
	// The healthy population's statistics must be present (14 modules
	// across 4 manufacturers, A and C one short).
	for _, ms := range sum.Mfrs {
		want := 4
		if ms.Mfr == "A" || ms.Mfr == "C" {
			want = 3
		}
		if ms.Modules != want {
			t.Fatalf("Mfr %s has %d modules in the aggregate, want %d", ms.Mfr, ms.Modules, want)
		}
	}
}

// TestChaosDeadModuleWithoutBreakerExhaustsRetries: with the breaker
// disabled a dead module burns every retry and lands in FailedJobs —
// still explicit accounting, just without quarantine semantics.
func TestChaosDeadModuleWithoutBreakerExhaustsRetries(t *testing.T) {
	spec := chaosSpec()
	spec.RetryBackoff = 0

	profile := mustParseFaults(t, "dead=B/1+seed=7")
	res, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: inject.WrapRunner(pureRunner, profile)})
	if err == nil {
		t.Fatal("dead module must fail the campaign")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected cancellation: %v", err)
	}
	rec := res.Records["hcfirst/B/1"]
	if rec.Quarantined {
		t.Fatal("breaker disabled: record must not be quarantined")
	}
	if rec.Attempts != spec.MaxRetries+1 {
		t.Fatalf("attempts = %d, want %d (all retries exhausted)", rec.Attempts, spec.MaxRetries+1)
	}
	sum := campaign.Aggregate(res)
	if sum.Coverage == nil || len(sum.Coverage.FailedJobs) != 1 || sum.Coverage.FailedJobs[0] != "hcfirst/B/1" {
		t.Fatalf("coverage must name the failed job, got %+v", sum.Coverage)
	}
}

// TestChaosFaultyRunResumesBitIdentical: interrupt a chaos run, resume
// it under the same fault profile, and the final summary still equals
// the fault-free reference — checkpoint/resume and fault injection
// compose.
func TestChaosFaultyRunResumesBitIdentical(t *testing.T) {
	spec := chaosSpec()

	ref, err := campaign.Run(context.Background(), spec, campaign.Options{Runner: pureRunner})
	if err != nil {
		t.Fatal(err)
	}
	refSum := summarize(t, ref)

	// Interrupted chaos run: cancel after 5 completions.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cp bytes.Buffer
	completions := 0
	_, err = campaign.Run(ctx, spec, campaign.Options{
		Runner:  inject.WrapRunner(pureRunner, inject.Chaos(7)),
		Records: campaign.NewCheckpointWriter(&cp, spec),
		Progress: func(done, total int, rec campaign.Record) {
			if !rec.Failed() {
				if completions++; completions == 5 {
					cancel()
				}
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted chaos run should report cancellation, got %v", err)
	}

	rep, err := campaign.ReadCheckpointReport(bytes.NewReader(cp.Bytes()), campaign.ResumeOptions{ExpectSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 2 || rep.CorruptRecords != 0 {
		t.Fatalf("chaos checkpoint: version %d, %d corrupt line(s); want a clean v2 stream", rep.Version, rep.CorruptRecords)
	}
	resumed, err := campaign.Run(context.Background(), spec, campaign.Options{
		Runner: inject.WrapRunner(pureRunner, inject.Chaos(7)),
		Done:   rep.Records,
	})
	if err != nil {
		t.Fatalf("resumed chaos run: %v", err)
	}
	if got := summarize(t, resumed); !bytes.Equal(refSum, got) {
		t.Fatalf("interrupted+resumed chaos summary differs from fault-free run:\nref: %s\ngot: %s", refSum, got)
	}
}
