package rowhammer

import (
	"context"
	"fmt"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/inject"
	"rowhammer/internal/pool"
	"rowhammer/internal/rng"
)

// Fleet campaigns: the population-scale front door of the package.
// The paper's contribution is a 272-chip population study; RunCampaign
// reproduces that shape of work — many module instances characterized
// in parallel, checkpointed, and merged into order-independent fleet
// statistics.

// The campaign experiment kinds.
const (
	CampaignHCFirst = campaign.KindHCFirst
	CampaignBER     = campaign.KindBER
	CampaignWCDP    = campaign.KindWCDP
	CampaignSpatial = campaign.KindSpatial
)

// CampaignKinds lists the supported per-module experiment kinds.
func CampaignKinds() []string { return campaign.Kinds() }

// CampaignRecord is one module's checkpointed measurement record.
type CampaignRecord = campaign.Record

// CampaignSummary is the order-independent fleet aggregate.
type CampaignSummary = campaign.Summary

// CampaignCoverage is the explicit coverage accounting a degraded
// fleet summary carries (jobs completed / retried / quarantined).
type CampaignCoverage = campaign.Coverage

// FaultProfile configures the deterministic fault injector wrapped
// around the per-module measurement cores (chaos testing).
type FaultProfile = inject.Profile

// ParseFaultProfile parses the CLI fault-profile syntax, e.g. "chaos",
// "transient+seed=7", "dead=A/0,C/2". Empty or "none" yields nil.
func ParseFaultProfile(s string) (*FaultProfile, error) { return inject.Parse(s) }

// CampaignSpec declares a fleet characterization campaign.
type CampaignSpec struct {
	// Kind selects the per-module experiment (Campaign* constants);
	// empty selects CampaignHCFirst.
	Kind string
	// Mfrs lists manufacturer profiles; empty selects A, B, C, D.
	Mfrs []string
	// ModulesPerMfr is the fleet width per manufacturer (default 4).
	ModulesPerMfr int
	// Seed is the master seed; module seeds derive via ModuleSeed.
	Seed uint64
	// Scale bounds per-module work; zero selects DefaultScale().
	Scale Scale
	// Geometry of the modules; zero selects DefaultDDR4Geometry().
	Geometry Geometry
	// Temps is the temperature grid of BER campaigns; empty selects
	// StudyTemps().
	Temps []float64
	// Workers bounds the worker pool (< 1 selects NumCPU).
	Workers int
	// MaxRetries bounds per-job retries (default 1).
	MaxRetries int
	// JobTimeout bounds one job attempt (0 = no per-job deadline).
	JobTimeout time.Duration
	// RetryBackoff is the base of the exponential retry backoff with
	// deterministic jitter (0 = retry immediately).
	RetryBackoff time.Duration
	// BreakerThreshold quarantines a module after this many
	// consecutive failed attempts (0 = circuit breaker disabled).
	BreakerThreshold int
	// WatchdogFactor arms the stuck-job watchdog: a job attempt whose
	// runner has not returned JobTimeout×WatchdogFactor after it
	// started is cancelled, and after a second such window abandoned
	// and requeued through the bounded retry path.
	// 0 disables the watchdog; non-zero requires JobTimeout > 0.
	WatchdogFactor int
}

// CampaignOptions controls checkpointing and progress reporting.
type CampaignOptions struct {
	// Records, when non-nil, receives every finished record as it
	// completes; use CreateCampaignCheckpoint or OpenCampaignCheckpoint
	// to stream the crash-safe v2 checkpoint format.
	Records CampaignRecordWriter
	// Drain, when non-nil and closed (or signalled), stops dispatching
	// new jobs: in-flight jobs finish and are checkpointed, then
	// RunCampaign returns ErrCampaignDrained if work remains — the
	// graceful-shutdown half of the kill-anywhere guarantee.
	Drain <-chan struct{}
	// Resume holds records of a previous run (the Records of the
	// report OpenCampaignCheckpoint returns); their successful jobs are
	// skipped.
	Resume map[string]CampaignRecord
	// Progress, when non-nil, is called after every finished job.
	Progress func(done, total int, rec CampaignRecord)
	// FaultProfile, when non-nil, wraps the measurement runner with
	// the deterministic fault injector — the chaos-testing knob.
	FaultProfile *FaultProfile
}

// CampaignResult is the outcome of a campaign run.
type CampaignResult struct {
	// Records maps job key → record, including resumed records.
	Records map[string]CampaignRecord
	// Summary is the order-independent fleet aggregate of the records;
	// interrupted+resumed campaigns produce bit-identical summaries to
	// uninterrupted ones.
	Summary CampaignSummary
	// Completed counts jobs run by this invocation, Skipped jobs
	// adopted from Resume, Failed jobs that exhausted retries.
	Completed, Skipped, Failed int
	// Retried counts jobs that needed more than one attempt;
	// Quarantined the failed jobs whose module tripped the breaker.
	Retried, Quarantined int
	// QuarantinedModules names the circuit-breaker-quarantined
	// modules ("mfr/index"), sorted.
	QuarantinedModules []string
}

// CampaignCheckpointWriter streams records in the crash-safe v2
// checkpoint format: a self-describing header line plus a CRC32C
// trailer on every record, each fsynced as it is written.
type CampaignCheckpointWriter = campaign.CheckpointWriter

// CampaignResumeReport describes what a checkpoint load found:
// adopted records, duplicate keys, quarantined corrupt lines (and the
// .corrupt sidecar holding them), and whether the final record was
// torn by a crash.
type CampaignResumeReport = campaign.ResumeReport

// CampaignCorruptLine is one quarantined checkpoint line.
type CampaignCorruptLine = campaign.CorruptLine

// CampaignRecordWriter receives finished records as they complete.
type CampaignRecordWriter = campaign.RecordWriter

// ErrCampaignDrained marks a run stopped by CampaignOptions.Drain with
// jobs still pending; the checkpoint is flushed and resumable.
var ErrCampaignDrained = campaign.ErrDrained

// ErrCampaignSpecMismatch marks a checkpoint that belongs to a
// campaign measuring something else (different kind, fleet, seed,
// temps, scale or geometry) — resuming it would silently mix results.
var ErrCampaignSpecMismatch = campaign.ErrSpecMismatch

// lowerSpec resolves the public spec's Scale/Geometry defaults and
// lowers it to the engine spec, folding the measurement identity
// (scale + geometry) into the checkpoint fingerprint: those knobs
// change measured values without changing the job set, so a
// checkpoint taken at one scale must not resume into another. A
// malformed temperature grid is rejected here, before it can reach a
// sweep loop: a zero or negative step with a typed *TempStepError,
// more than MaxSweepTemps points with a *TempGridSizeError.
func lowerSpec(spec CampaignSpec) (campaign.Spec, Scale, Geometry, error) {
	scale, geom := spec.Scale, spec.Geometry
	if err := FillMeasureDefaults(&scale, &geom, nil, nil); err != nil {
		return campaign.Spec{}, scale, geom, err
	}
	if err := ValidateTempGrid(spec.Temps); err != nil {
		return campaign.Spec{}, scale, geom, err
	}
	cs := campaign.Spec{
		Kind:             spec.Kind,
		Mfrs:             spec.Mfrs,
		ModulesPerMfr:    spec.ModulesPerMfr,
		Seed:             spec.Seed,
		Workers:          spec.Workers,
		MaxRetries:       spec.MaxRetries,
		JobTimeout:       spec.JobTimeout,
		RetryBackoff:     spec.RetryBackoff,
		BreakerThreshold: spec.BreakerThreshold,
		WatchdogFactor:   spec.WatchdogFactor,
		Temps:            spec.Temps,
		Fingerprint:      fmt.Sprintf("%016x", rng.HashString(fmt.Sprintf("scale:%+v|geom:%+v", scale, geom))),
	}
	// Normalize now so the checkpoint header hash is computed over the
	// same defaults the engine will run with; an invalid spec is passed
	// through untouched and rejected by Run with a proper error.
	if n, err := cs.Normalize(); err == nil {
		cs = n
	}
	return cs, scale, geom, nil
}

// CreateCampaignCheckpoint creates (or truncates) a v2 checkpoint file
// for the campaign; pass the writer as CampaignOptions.Records.
func CreateCampaignCheckpoint(path string, spec CampaignSpec) (*CampaignCheckpointWriter, error) {
	cs, _, _, err := lowerSpec(spec)
	if err != nil {
		return nil, err
	}
	return campaign.CreateCheckpoint(path, cs)
}

// OpenCampaignCheckpoint resumes a checkpoint file in one read: it
// verifies the file belongs to this campaign (ErrCampaignSpecMismatch
// otherwise), reports what it holds — pass the report's Records as
// CampaignOptions.Resume and the writer as CampaignOptions.Records —
// and opens it for appending. A file torn mid-record by a crash is
// newline-isolated so the fragment cannot corrupt the first new
// record; a missing file starts a fresh checkpoint.
func OpenCampaignCheckpoint(path string, spec CampaignSpec) (*CampaignCheckpointWriter, *CampaignResumeReport, error) {
	cs, _, _, err := lowerSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	return campaign.OpenCheckpoint(path, cs, 0, 0)
}

// LoadCampaignCheckpointReport reads a v1 or v2 checkpoint for resume.
// With a non-nil spec the checkpoint's identity is verified
// (ErrCampaignSpecMismatch on a stale or foreign checkpoint). CRC
// verification quarantines corrupt interior lines to a .corrupt
// sidecar — reported, never silently adopted — and tolerates only a
// torn final record. A missing file yields an empty report.
func LoadCampaignCheckpointReport(path string, spec *CampaignSpec) (*CampaignResumeReport, error) {
	var opts campaign.ResumeOptions
	if spec != nil {
		cs, _, _, err := lowerSpec(*spec)
		if err != nil {
			return nil, err
		}
		opts.ExpectSpec = &cs
	}
	return campaign.LoadCheckpointReport(path, opts)
}

// CompactCampaignCheckpoint rewrites a checkpoint to one deduplicated
// record per job in canonical order, publishing the result atomically
// (the original is untouched if compaction fails anywhere). A nil spec
// trusts the file's own v2 header; a non-nil spec is verified against
// it, and is required to compact a headerless v1 file.
func CompactCampaignCheckpoint(path string, spec *CampaignSpec) (*CampaignResumeReport, error) {
	if spec == nil {
		return campaign.CompactCheckpointFile(path, nil)
	}
	cs, _, _, err := lowerSpec(*spec)
	if err != nil {
		return nil, err
	}
	return campaign.CompactCheckpointFile(path, &cs)
}

// RunCampaign expands the spec into per-module jobs, runs them on a
// bounded worker pool with panic recovery and bounded retry, streams
// records to the checkpoint, and aggregates the fleet summary. On
// cancellation it returns the partial result together with ctx's
// error; OpenCampaignCheckpoint resumes the checkpoint.
func RunCampaign(ctx context.Context, spec CampaignSpec, opts CampaignOptions) (*CampaignResult, error) {
	cspec, scale, geom, err := lowerSpec(spec)
	if err != nil {
		return nil, err
	}
	runner := moduleRunner(scale, geom)
	if opts.FaultProfile != nil {
		runner = inject.WrapRunner(runner, opts.FaultProfile)
	}
	res, err := campaign.Run(ctx, cspec, campaign.Options{
		Runner:   runner,
		Records:  opts.Records,
		Done:     opts.Resume,
		Progress: opts.Progress,
		Drain:    opts.Drain,
	})
	if res == nil {
		return nil, err
	}
	return &CampaignResult{
		Records:            res.Records,
		Summary:            campaign.Aggregate(res),
		Completed:          res.Completed,
		Skipped:            res.Skipped,
		Failed:             res.Failed,
		Retried:            res.Retried,
		Quarantined:        res.Quarantined,
		QuarantinedModules: res.QuarantinedModules(),
	}, err
}

// measureCores maps the built-in measurement campaign kinds to their
// per-module cores — the table-driven replacement of the old closed
// switch. Experiment campaigns (exp.* kinds) register their own
// runners through campaign.RegisterKind and exp.FleetRunner instead
// of extending this table.
var measureCores = map[string]func(*Tester, context.Context, MeasureScope) (PatternKind, map[string]float64, map[string][]float64, error){
	campaign.KindHCFirst: (*Tester).MeasureModuleHCFirst,
	campaign.KindBER:     (*Tester).MeasureModuleBER,
	campaign.KindWCDP:    (*Tester).MeasureModuleWCDP,
	campaign.KindSpatial: (*Tester).MeasureModuleSpatial,
}

// CampaignEngine lowers the public spec to the engine spec and the
// measurement runner that executes it — the seam that lets callers
// (rhfleet, rhserved) drive campaign.Run directly, side by side with
// experiment-generic runners from internal/exp. It rejects every spec
// the engine would reject — a watchdog without a job timeout, a job
// count beyond campaign.MaxJobs — before anything expands its jobs.
func CampaignEngine(spec CampaignSpec) (campaign.Spec, campaign.Runner, error) {
	cs, scale, geom, err := lowerSpec(spec)
	if err != nil {
		return campaign.Spec{}, nil, err
	}
	if _, err := cs.Normalize(); err != nil {
		return campaign.Spec{}, nil, err
	}
	return cs, moduleRunner(scale, geom), nil
}

// moduleRunner builds the campaign runner that measures one real
// module bench per job via the per-module measurement cores.
func moduleRunner(scale Scale, geom Geometry) campaign.Runner {
	return func(ctx context.Context, spec campaign.Spec, job campaign.Job) (campaign.Record, error) {
		profile := ProfileByName(job.Mfr)
		if profile == nil {
			return campaign.Record{}, fmt.Errorf("rowhammer: unknown manufacturer profile %q", job.Mfr)
		}
		seed := ModuleSeed(spec.Seed, job.Mfr, job.Module)
		b, err := NewBench(BenchConfig{Profile: profile, Seed: seed, Geometry: geom})
		if err != nil {
			return campaign.Record{}, err
		}
		t := NewTester(b)
		// The measurement cores get this job's share of the CPUs left
		// by the engine workers running in the process: every
		// campaign's, so the concurrent shards of a sharded campaign
		// do not each fan out over the whole machine. Results are
		// worker-count-invariant, so this is purely a scheduling
		// decision.
		t.SetWorkers(pool.Share())
		scope := MeasureScope{Scale: scale, Temps: spec.Temps}

		core, ok := measureCores[job.Kind]
		if !ok {
			return campaign.Record{}, fmt.Errorf("rowhammer: unknown campaign kind %q", job.Kind)
		}
		pat, metrics, series, err := core(t, ctx, scope)
		if err != nil {
			return campaign.Record{}, err
		}
		return campaign.Record{
			Seed:    seed,
			Pattern: pat.String(),
			Metrics: metrics,
			Series:  series,
		}, nil
	}
}
