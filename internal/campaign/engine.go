package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"rowhammer/internal/pool"
	"rowhammer/internal/rng"
)

// ErrDrained is returned by Run when the graceful-drain signal
// (Options.Drain) stopped dispatch before every job ran: in-flight
// jobs were allowed to finish and their records checkpointed, so the
// campaign is cleanly resumable.
var ErrDrained = errors.New("campaign: drained: dispatch stopped by graceful shutdown; resume from the checkpoint")

// Runner executes one job and returns its record. Runners must be
// deterministic in (spec seed, job) and safe for concurrent use; the
// engine adds panic recovery, per-attempt deadlines, backoff and retry
// around every call. The attempt number is available to the runner via
// Attempt(ctx), which is what lets deterministic fault injectors
// (internal/inject) key transient faults on the attempt.
type Runner func(ctx context.Context, spec Spec, job Job) (Record, error)

// attemptKey carries the 1-based attempt number in the job context.
type attemptKey struct{}

// withAttempt annotates ctx with the attempt number.
func withAttempt(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, attemptKey{}, n)
}

// Attempt returns the 1-based attempt number of the running job, or 1
// when the context does not carry one (e.g. a runner called directly).
func Attempt(ctx context.Context) int {
	if n, ok := ctx.Value(attemptKey{}).(int); ok {
		return n
	}
	return 1
}

// RecordWriter is a record-granular checkpoint sink; *CheckpointWriter
// implements it with the v2 header + CRC trailer format.
type RecordWriter interface{ WriteRecord(Record) error }

// Options configures one engine run.
type Options struct {
	// Runner executes jobs (required).
	Runner Runner
	// Records, when non-nil, receives one record per finished job
	// (successful or failed) as each job completes — the checkpoint
	// sink. A *CheckpointWriter from CreateCheckpoint or OpenCheckpoint
	// fsyncs every record, so a crash can lose at most the in-flight
	// record.
	Records RecordWriter
	// Done holds records from a previous run (the Records of a
	// ResumeReport); successful entries are adopted without re-running
	// their jobs.
	Done map[string]Record
	// Only, when non-nil, restricts the run to the jobs whose keys it
	// contains — the shard filter: a shard worker executes (and
	// checkpoints, and counts in its totals) exactly its assigned
	// slice of the job grid, so N disjoint shard runs cover the
	// campaign with no overlap and their merged records equal a
	// single-process run's.
	Only map[string]bool
	// Drain, when non-nil, is the graceful-shutdown signal: once it is
	// closed (or delivers), the engine stops dispatching queued jobs
	// but lets in-flight jobs finish and checkpoint under ctx, then
	// Run returns ErrDrained with the partial, resumable result. The
	// hard stop remains ctx's cancellation.
	Drain <-chan struct{}
	// Progress, when non-nil, is called after every finished or skipped
	// job with the running completion counts. It is called from the
	// collector goroutine only, so it needs no locking.
	Progress func(done, total int, rec Record)
}

// Result is the outcome of a campaign run.
type Result struct {
	Spec Spec
	// Records maps job key → record for every job that has a result,
	// including records adopted from a resume checkpoint.
	Records map[string]Record
	// Total is the number of jobs this run was responsible for: the
	// full grid, or the Options.Only slice of it for shard runs.
	Total int
	// Completed counts jobs run to success by this engine invocation,
	// Skipped jobs adopted from the resume checkpoint, and Failed jobs
	// that exhausted their retries (including cancellations and
	// quarantined modules).
	Completed, Skipped, Failed int
	// Retried counts jobs that needed more than one attempt, and
	// Quarantined the subset of failed jobs whose module tripped the
	// circuit breaker.
	Retried, Quarantined int
}

// Jobs returns the total number of jobs the spec expands to.
func (r *Result) Jobs() int { return len(Expand(r.Spec)) }

// QuarantinedModules lists the modules quarantined by the circuit
// breaker, sorted, one entry per module.
func (r *Result) QuarantinedModules() []string {
	seen := map[string]bool{}
	for _, rec := range r.Records {
		if rec.Quarantined {
			seen[rec.ModuleID()] = true
		}
	}
	return sortedNames(seen)
}

// Run executes the campaign: it expands the spec, skips jobs already
// present in opts.Done, and runs the remainder on spec.Workers
// goroutines. Finished records are streamed to opts.Records in
// completion order; aggregation (Aggregate) is order-independent, so
// the checkpoint's ordering never affects the summary.
//
// On cancellation Run returns the partial Result together with the
// context error; everything already checkpointed can be resumed.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if opts.Runner == nil {
		return nil, fmt.Errorf("campaign: Options.Runner is required")
	}
	jobs := Expand(spec)
	if opts.Only != nil {
		kept := make([]Job, 0, len(opts.Only))
		for _, j := range jobs {
			if opts.Only[j.Key()] {
				kept = append(kept, j)
			}
		}
		jobs = kept
	}
	res := &Result{Spec: spec, Total: len(jobs), Records: make(map[string]Record, len(jobs))}

	pending := make([]Job, 0, len(jobs))
	for _, j := range jobs {
		if rec, ok := opts.Done[j.Key()]; ok && !rec.Failed() {
			res.Records[j.Key()] = rec
			res.Skipped++
			continue
		}
		pending = append(pending, j)
	}

	br := newBreaker(spec.BreakerThreshold)
	jobCh := make(chan Job)
	recCh := make(chan Record)
	var wg sync.WaitGroup
	// Each worker holds one process-wide slot (pool.Share) until it
	// exits, so a runner's inner fan-out sees every engine running in
	// the process, not only this one.
	workers := min(spec.Workers, len(pending))
	pool.Reserve(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pool.Release(1)
			for j := range jobCh {
				recCh <- runJob(ctx, opts.Runner, spec, j, br)
			}
		}()
	}
	// drained is written by the dispatcher goroutine before it returns
	// and read only after the collector loop ends; the close(jobCh) →
	// wg.Wait → close(recCh) chain orders those accesses.
	drained := false
	go func() {
		defer close(jobCh)
		for _, j := range pending {
			select {
			case jobCh <- j:
			case <-ctx.Done():
				return
			case <-opts.Drain:
				drained = true
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(recCh)
	}()

	done := res.Skipped
	if opts.Progress != nil {
		for _, k := range sortedKeys(res.Records) {
			opts.Progress(done, len(jobs), res.Records[k])
		}
	}
	var cpErr error
	for rec := range recCh {
		res.Records[rec.Key] = rec
		if rec.Failed() {
			res.Failed++
			if rec.Quarantined {
				res.Quarantined++
			}
		} else {
			res.Completed++
		}
		if rec.Attempts > 1 {
			res.Retried++
		}
		done++
		if cpErr == nil && opts.Records != nil {
			cpErr = opts.Records.WriteRecord(rec)
		}
		if opts.Progress != nil {
			opts.Progress(done, len(jobs), rec)
		}
	}
	if cpErr != nil {
		return res, fmt.Errorf("campaign: writing checkpoint: %w", cpErr)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if drained && len(res.Records) < len(jobs) {
		return res, ErrDrained
	}
	if res.Failed > 0 {
		if res.Quarantined > 0 {
			return res, fmt.Errorf("campaign: %d of %d jobs failed (%d quarantined: %s)",
				res.Failed, len(jobs), res.Quarantined, strings.Join(res.QuarantinedModules(), ", "))
		}
		return res, fmt.Errorf("campaign: %d of %d jobs failed", res.Failed, len(jobs))
	}
	return res, nil
}

// breaker is the per-module circuit breaker: it counts consecutive
// failed attempts per module and opens (quarantines) a module once the
// threshold is reached. Workers share one breaker, so it is locked.
type breaker struct {
	mu        sync.Mutex
	threshold int
	consec    map[string]int
	open      map[string]bool
}

func newBreaker(threshold int) *breaker {
	return &breaker{threshold: threshold, consec: map[string]int{}, open: map[string]bool{}}
}

// tripped reports whether the module is quarantined.
func (b *breaker) tripped(module string) bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open[module]
}

// observe records one attempt outcome and reports whether the module
// is now (or already was) quarantined.
func (b *breaker) observe(module string, failed bool) bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !failed {
		b.consec[module] = 0
		return b.open[module]
	}
	b.consec[module]++
	if b.consec[module] >= b.threshold {
		b.open[module] = true
	}
	return b.open[module]
}

// runJob executes one job with panic recovery, per-attempt deadlines,
// deterministic exponential backoff and the circuit breaker.
func runJob(ctx context.Context, runner Runner, spec Spec, job Job, br *breaker) Record {
	module := job.ModuleID()
	var lastErr error
	attempts := 0
	for attempts <= spec.MaxRetries {
		if br.tripped(module) {
			return quarantinedRecord(job, attempts, lastErr)
		}
		attempts++
		rec, err := safeRun(ctx, spec, runner, job, attempts)
		if err == nil {
			br.observe(module, false)
			rec.Key = job.Key()
			rec.Kind = job.Kind
			rec.Mfr = job.Mfr
			rec.Module = job.Module
			rec.Attempts = attempts
			return rec
		}
		lastErr = err
		if br.observe(module, true) {
			return quarantinedRecord(job, attempts, lastErr)
		}
		if ctx.Err() != nil {
			// The campaign (not just the attempt) was cancelled:
			// retrying would just fail again.
			break
		}
		if attempts <= spec.MaxRetries && !sleepBackoff(ctx, spec, job, attempts) {
			break
		}
	}
	return Record{
		Key: job.Key(), Kind: job.Kind, Mfr: job.Mfr, Module: job.Module,
		Attempts: attempts, Err: lastErr.Error(),
	}
}

// quarantinedRecord builds the failed record of a breaker-tripped
// module. cause may be nil when the module was quarantined by an
// earlier job before this one ran an attempt.
func quarantinedRecord(job Job, attempts int, cause error) Record {
	msg := fmt.Sprintf("module %s quarantined by circuit breaker", job.ModuleID())
	if cause != nil {
		msg = fmt.Sprintf("%s: %v", msg, cause)
	}
	return Record{
		Key: job.Key(), Kind: job.Kind, Mfr: job.Mfr, Module: job.Module,
		Attempts: attempts, Err: msg, Quarantined: true,
	}
}

// safeRun invokes the runner for one attempt — with the attempt number
// in the context, under the per-attempt deadline — and, when the
// watchdog is armed (Spec.WatchdogFactor), supervises the attempt so a
// runner that wedges without respecting its context cannot hold a
// worker hostage forever.
func safeRun(ctx context.Context, spec Spec, runner Runner, job Job, attempt int) (Record, error) {
	actx := withAttempt(ctx, attempt)
	var cancel context.CancelFunc = func() {}
	if spec.JobTimeout > 0 {
		actx, cancel = context.WithTimeout(actx, spec.JobTimeout)
	}
	defer cancel()
	if spec.WatchdogFactor <= 0 {
		return runAttempt(actx, spec, runner, job, attempt)
	}

	// Supervised attempt: the runner executes in its own goroutine
	// while this worker times it from the attempt's start. After
	// JobTimeout×WatchdogFactor the attempt is cancelled (a runner
	// that merely missed its deadline gets to unwind); a second full
	// window with no return abandons the attempt — the goroutine is
	// left to die on its own, the buffered channel swallows its late
	// result, and the stall error feeds the normal bounded retry path,
	// which is what requeues the job.
	type outcome struct {
		rec Record
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		rec, err := runAttempt(actx, spec, runner, job, attempt)
		ch <- outcome{rec, err}
	}()
	threshold := spec.JobTimeout * time.Duration(spec.WatchdogFactor)
	t := time.NewTimer(threshold)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.rec, o.err
	case <-t.C:
	}
	cancel()
	t.Reset(threshold)
	select {
	case o := <-ch:
		return o.rec, o.err
	case <-t.C:
	}
	return Record{}, fmt.Errorf("job %s attempt %d stalled: no return within %v after cancellation; attempt abandoned by watchdog",
		job.Key(), attempt, threshold)
}

// runAttempt is one bare runner invocation, converting a panic into an
// error so a single bad module cannot take down the fleet run.
func runAttempt(actx context.Context, spec Spec, runner Runner, job Job, attempt int) (rec Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job %s panicked: %v", job.Key(), r)
		}
	}()
	rec, err = runner(actx, spec, job)
	if err == nil && actx.Err() != nil {
		// The attempt deadline fired but the runner returned a record
		// anyway: treat it as failed — a timed-out readout is torn.
		err = fmt.Errorf("job %s attempt %d: %w", job.Key(), attempt, actx.Err())
	}
	return rec, err
}

// sleepBackoff blocks for the deterministic backoff delay before the
// next retry; it returns false when the campaign is cancelled first.
func sleepBackoff(ctx context.Context, spec Spec, job Job, attempt int) bool {
	d := backoffDelay(spec, job, attempt)
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// backoffDelay returns the engine's per-retry delay for one job.
func backoffDelay(spec Spec, job Job, attempt int) time.Duration {
	return Backoff(spec.RetryBackoff, spec.Seed, job.Key(), attempt)
}

// Backoff returns base·2^(attempt-1) capped at 32×, plus a jitter in
// [0, base) derived deterministically from (seed, key, attempt) —
// reproducible, yet decorrelated across keys so retries never
// stampede the substrate in lockstep. The engine uses it for job
// retries; the lease-service client reuses it for its network
// retries, so one backoff policy covers every retried call in the
// system.
func Backoff(base time.Duration, seed uint64, key string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 5 {
		shift = 5
	}
	jitter := time.Duration(rng.Hash64(seed, rng.HashString(key), uint64(attempt)) % uint64(base))
	return base<<shift + jitter
}
