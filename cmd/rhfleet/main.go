// Command rhfleet runs fleet-scale characterization campaigns: many
// module instances per manufacturer, measured in parallel on a bounded
// worker pool, with JSONL checkpointing so an interrupted campaign
// resumes exactly where it stopped — and, because aggregation is
// order-independent, produces a bit-identical fleet summary.
//
// -exp accepts both the built-in per-module measurement kinds
// (hcfirst, ber, wcdp, spatial) and any paper experiment ID from
// `rhchar -list` (fig5, table3, def1, ...): experiment campaigns run
// one job per experiment shard through the same engine — worker pool,
// retry/backoff, circuit breaker, fault injection, watchdog,
// checkpoint/resume — and publish the experiment's merged artifact,
// bit-identical to `rhchar -format json` at the same scale and seed.
//
// Usage:
//
//	rhfleet -mfrs A,B,C,D -modules 16 -exp hcfirst -workers 8 -out fleet.jsonl
//	rhfleet -exp ber -modules 8 -out ber.jsonl -summary ber-summary.json
//	rhfleet -resume fleet.jsonl -mfrs A,B,C,D -modules 16 -exp hcfirst -out fleet.jsonl
//	rhfleet -exp fig5 -scale tiny -out fig5.jsonl -artifact fig5.artifact.json
//	rhfleet -spec campaign.json
//	rhfleet -exp hcfirst -modules 8 -fault-profile chaos -retries 4 -breaker 3
//	rhfleet -compact -out fleet.jsonl
//	rhfleet -worker -lease-url http://10.0.0.1:8077 -worker-id w1 -slots 2
//
// -worker joins the placement layer's fleet: the process registers
// with the lease service at -lease-url (a coordinator's -lease-listen
// or an rhserved), heartbeats, and runs whatever shard placements the
// scheduler assigns — each under the shard's fenced lease, resolving
// its campaign from the spec.json persisted in the placement's shard
// directory. No campaign flags apply; one worker serves any number of
// campaigns over its lifetime.
//
// Checkpoints are written in the crash-safe v2 format (self-describing
// header + CRC32C per record, fsynced per record); resume verifies the
// checkpoint belongs to this campaign and quarantines corrupt interior
// lines to a .corrupt sidecar instead of aborting. An advisory lock on
// <out>.lock keeps two rhfleet processes from interleaving writes. The
// first SIGINT/SIGTERM drains gracefully (dispatch stops, in-flight
// jobs finish, checkpoint flushed); a second signal aborts hard.
//
// Exit codes: 0 success; 1 error; 2 usage; 3 interrupted or drained —
// resumable with -resume; 4 partial result with quarantined modules
// (summary carries explicit coverage accounting).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	rh "rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/durable"
	"rowhammer/internal/exp"
	"rowhammer/internal/inject"
	"rowhammer/internal/profiling"
	"rowhammer/internal/server"
	"rowhammer/internal/shard"
)

// stopProfiles finishes any active pprof profiles; releaseLock drops
// the advisory checkpoint lock. Every termination path (fatal,
// fatalUsage, exit) routes through both because os.Exit skips
// deferred calls.
var (
	stopProfiles = func() {}
	releaseLock  = func() {}
)

func exit(code int) {
	releaseLock()
	stopProfiles()
	os.Exit(code)
}

func main() {
	var (
		mfrs    = flag.String("mfrs", "A,B,C,D", "comma-separated manufacturer profiles (measurement kinds; experiment campaigns shard themselves)")
		modules = flag.Int("modules", 4, "module instances per manufacturer (measurement kinds only)")
		expKind = flag.String("exp", "hcfirst", "measurement kind ("+strings.Join(rh.CampaignKinds(), ", ")+") or a paper experiment id (rhchar -list)")
		seed    = flag.Uint64("seed", rh.DefaultSeed, "master seed (module seeds derive from it)")
		scale   = flag.String("scale", "default", "measurement scale: tiny, default, paper")
		temps   = flag.String("temps", "", "comma-separated BER temperature grid in °C (default: 50-90 in 5° steps)")
		workers = flag.Int("workers", 0, "worker pool size (0 = one per CPU)")
		retries = flag.Int("retries", 1, "retries per failed job")
		timeout = flag.Duration("timeout", 0, "abort the campaign after this duration (0 = no limit)")
		jobTO   = flag.Duration("job-timeout", 0, "deadline per job attempt (0 = none)")
		backoff = flag.Duration("retry-backoff", 0, "base of the exponential retry backoff with deterministic jitter (0 = retry immediately)")
		breaker = flag.Int("breaker", 0, "quarantine a module after N consecutive failed attempts (0 = breaker off)")
		wdog    = flag.Int("watchdog", 0, "cancel a job attempt still running after N×job-timeout, abandon and requeue it after another N×job-timeout (0 = watchdog off; requires -job-timeout)")
		drainTO = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs after the first SIGINT/SIGTERM before a hard abort")
		compact = flag.Bool("compact", false, "rewrite the -out checkpoint to one deduplicated record per job, then exit")
		faults  = flag.String("fault-profile", "", "deterministic fault injection: none, transient, latency, drift, chaos, dead=MFR/IDX[,...], combined with + (e.g. chaos+dead=A/0+seed=7)")
		out     = flag.String("out", "fleet.jsonl", "JSONL checkpoint output path")
		resume  = flag.String("resume", "", "resume from a JSONL checkpoint (skips completed jobs)")
		sumOut  = flag.String("summary", "", "also write the fleet summary JSON to this path (measurement kinds)")
		artOut  = flag.String("artifact", "", "publish the merged experiment artifact atomically to this path (experiment kinds)")
		format  = flag.String("format", "json", "experiment artifact output format: json, tsv, text")
		specIn  = flag.String("spec", "", "load the campaign spec from a JSON file (flags above are ignored)")
		quiet   = flag.Bool("quiet", false, "suppress per-job progress on stderr")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")

		shardDir    = flag.String("shard-dir", "", "shard directory for -shard/-coordinate/-merge-shards (checkpoints, fence files, spec.json)")
		shardArg    = flag.String("shard", "", "run one shard worker: i/N (e.g. 2/8); requires -shard-dir and -lease-url")
		coordinate  = flag.Int("coordinate", 0, "coordinate an N-way sharded run: spawn N rhfleet -shard workers over -shard-dir, reassign dead shards, merge")
		mergeShards = flag.Bool("merge-shards", false, "merge the shard checkpoints in -shard-dir into one summary/artifact, then exit")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "shard lease TTL: a coordinator kills a worker whose heartbeat has been frozen this long, and a worker cut off from its lease service this long self-fences")
		maxRespawn  = flag.Int("max-respawns", 3, "coordinator: give up on a shard after this many reassignments")
		leaseURL    = flag.String("lease-url", "", "-shard/-worker: base URL of the lease service that owns the shards (a coordinator's -lease-listen or an rhserved, e.g. http://10.0.0.1:8077); workers may run on other hosts")
		leaseListen = flag.String("lease-listen", "127.0.0.1:0", "coordinator: address of the lease service it self-hosts; spawned workers get its URL as -lease-url")
		workerMode  = flag.Bool("worker", false, "join the fleet: register with the placement layer at -lease-url and run whatever shard placements its scheduler assigns")
		workerID    = flag.String("worker-id", "", "worker: registration ID (default host:pid); re-using an ID supersedes the previous holder")
		slots       = flag.Int("slots", 1, "worker: shard placements to run concurrently")
		netChaos    = flag.String("net-chaos", "", "worker: deterministic network fault injection on the lease client: none, flaky, partition=FROM:FOR, drop=R, oneway=R, err=R, latency=R:D, seed=N, maxops=N, combined with +")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of rhfleet:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), `
Exit codes:
  0  campaign complete
  1  error
  2  usage error
  3  interrupted, drained or timed out — resume with -resume <checkpoint>
  4  partial result: modules quarantined by the circuit breaker; the
     summary's "coverage" block names the lost coverage

The first SIGINT/SIGTERM drains: dispatch stops, in-flight jobs finish
(bounded by -drain-timeout), the checkpoint is flushed, and rhfleet
exits 3. A second signal aborts immediately. <out>.lock serializes
rhfleet processes per checkpoint.
`)
	}
	flag.Parse()

	stopProf, perr := profiling.Start(*cpuProf, *memProf)
	if perr != nil {
		fatalUsage(perr)
	}
	stopProfiles = stopProf
	defer stopProfiles()

	if *format != "json" && *format != "tsv" && *format != "text" {
		fatalUsage(fmt.Errorf("unknown artifact format %q (json, tsv, text)", *format))
	}
	profile, err := rh.ParseFaultProfile(*faults)
	if err != nil {
		fatalUsage(err)
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	// -lease-listen has a default address; only an explicit one is a
	// role choice the flag matrix judges.
	listenSet := ""
	if explicit["lease-listen"] {
		listenSet = *leaseListen
	}
	if err := validateModeFlags(modeFlags{
		shard: *shardArg, coordinate: *coordinate, mergeShards: *mergeShards,
		worker: *workerMode, shardDir: *shardDir,
		leaseURL: *leaseURL, leaseListen: listenSet,
		workerIDSet: explicit["worker-id"], slotsSet: explicit["slots"],
	}); err != nil {
		fatalUsage(err)
	}
	// A fleet worker has no campaign of its own — every placement it is
	// handed resolves its spec from the placement's shard directory —
	// so it dispatches before any spec is built.
	if *workerMode {
		exit(runFleetWorker(fleetWorkerCfg{
			id: *workerID, slots: *slots,
			leaseURL: *leaseURL, leaseTTL: *leaseTTL, netChaos: *netChaos,
			profile: profile, seed: *seed,
			quiet: *quiet, timeout: *timeout, drainTO: *drainTO,
		}))
	}
	shardMode := *shardArg != "" || *coordinate > 0 || *mergeShards
	// Shard modes default to the directory's persisted spec, so a
	// restarted coordinator (or a hand-run worker or merge) needs no
	// flag replay: the directory says what campaign it holds.
	if shardMode && *specIn == "" {
		if p := shard.SpecPath(*shardDir); fileExists(p) {
			*specIn = p
		}
	}
	ws, err := buildWireSpec(*specIn, *mfrs, *modules, *expKind, *seed, *scale, *temps,
		*workers, *retries, *jobTO, *backoff, *breaker, *wdog)
	if err != nil {
		fatal(err)
	}
	spec, err := ws.CampaignSpec()
	if err != nil {
		fatal(err)
	}

	// Resolve the engine spec and runner through the shared resolution
	// the campaign server uses — measurement kinds win bare-name
	// collisions, the exp: prefix forces the experiment, and all
	// validation happens here, before touching the output file: a
	// typo'd -exp must not truncate an existing checkpoint.
	rsv, rerr := server.Resolve(spec)
	if rerr != nil {
		fatal(rerr)
	}
	cs, runner, expE := rsv.Spec, rsv.Runner, rsv.Exp

	// Distributed modes run over -shard-dir and never touch -out.
	switch {
	case *shardArg != "":
		exit(runShardWorker(shardWorkerConfig{
			assignment: *shardArg, dir: *shardDir, rsv: rsv, profile: profile,
			quiet: *quiet, timeout: *timeout, drainTO: *drainTO,
			leaseURL: *leaseURL, leaseTTL: *leaseTTL, netChaos: *netChaos,
		}))
	case *coordinate > 0:
		exit(runCoordinator(coordinatorConfig{
			dir: *shardDir, shards: *coordinate, wire: ws, rsv: rsv,
			faults: *faults, quiet: *quiet, timeout: *timeout, drainTO: *drainTO,
			leaseTTL: *leaseTTL, maxRespawns: *maxRespawn, leaseListen: *leaseListen,
			format: *format, sumOut: *sumOut, artOut: *artOut,
		}))
	case *mergeShards:
		exit(runMergeShards(*shardDir, rsv, *format, *sumOut, *artOut))
	}

	// Advisory exclusivity: one rhfleet per checkpoint file. The kernel
	// drops the flock with the process, so a SIGKILLed run never leaves
	// a stale lock behind.
	lock, err := durable.AcquireLock(*out + ".lock")
	if err != nil {
		if errors.Is(err, durable.ErrLocked) {
			fatal(fmt.Errorf("checkpoint %s is in use by another rhfleet: %w", *out, err))
		}
		fatal(err)
	}
	var unlockOnce sync.Once
	releaseLock = func() { unlockOnce.Do(func() { lock.Release() }) }
	defer releaseLock()

	if *compact {
		// A v2 checkpoint is self-describing: trust its header unless the
		// user explicitly named a campaign on the command line (needed to
		// stamp a header onto a v1 file, verified against a v2 one).
		var cspec *campaign.Spec
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mfrs", "modules", "exp", "seed", "scale", "temps", "spec":
				cspec = &cs
			}
		})
		rep, err := campaign.CompactCheckpointFile(*out, cspec)
		if err != nil {
			fatal(fmt.Errorf("compacting %s: %w", *out, err))
		}
		fmt.Fprintf(os.Stderr, "rhfleet: compacted %s: %d records kept, %d duplicate and %d corrupt line(s) dropped\n",
			*out, len(rep.Records), rep.DuplicateRecords, rep.CorruptRecords)
		exit(0)
	}

	// Resuming into the same file appends to it. Resuming into a new
	// file copies the adopted records over first — in key order,
	// through the same writer — so the new file alone resumes the
	// campaign afterwards. Every path writes the v2 format: header
	// line + CRC32C per record.
	var (
		cw  *rh.CampaignCheckpointWriter
		rep *campaign.ResumeReport
	)
	switch {
	case *resume == "":
		cw, err = campaign.CreateCheckpoint(*out, cs)
	case *resume == *out:
		cw, rep, err = campaign.OpenCheckpoint(*out, cs, 0, 0)
	default:
		rep, err = campaign.LoadCheckpointReport(*resume, campaign.ResumeOptions{ExpectSpec: &cs})
		if err == nil {
			cw, err = campaign.CreateCheckpoint(*out, cs)
		}
		if err == nil {
			err = cw.WriteRecords(rep.Records)
		}
	}
	if err != nil {
		fatal(fmt.Errorf("checkpoint (-resume %q, -out %q): %w", *resume, *out, err))
	}
	defer cw.Close()
	armFailpoint(cw)

	var resumeRecs map[string]rh.CampaignRecord
	if rep != nil {
		resumeRecs = rep.Records
		fmt.Fprintf(os.Stderr, "rhfleet: resuming with %d checkpointed records from %s (format v%d)\n",
			len(rep.Records), *resume, rep.Version)
		if rep.DuplicateRecords > 0 {
			fmt.Fprintf(os.Stderr, "rhfleet: %d duplicate key(s) in checkpoint — latest result wins, a success is never replaced by a failure\n",
				rep.DuplicateRecords)
		}
		if rep.TornFinal {
			fmt.Fprintln(os.Stderr, "rhfleet: final checkpoint record was torn by a crash; its job will be re-run")
		}
		if rep.CorruptRecords > 0 {
			fmt.Fprintf(os.Stderr, "rhfleet: %d corrupt checkpoint line(s) quarantined to %s; their jobs will be re-run\n",
				rep.CorruptRecords, rep.QuarantinePath)
		}
	}

	base := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		base, cancel = context.WithTimeout(base, *timeout)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()

	drainCh := armDrainSignals(ctx, cancel, *drainTO)

	if profile != nil {
		runner = inject.WrapRunner(runner, profile)
		fmt.Fprintf(os.Stderr, "rhfleet: fault injection active: %s (seed %d)\n", profile, profile.Seed)
	}
	opts := campaign.Options{Runner: runner, Records: cw, Done: resumeRecs, Drain: drainCh}
	start := time.Now()
	if !*quiet {
		opts.Progress = func(done, total int, rec rh.CampaignRecord) {
			status := "ok"
			if rec.Err != "" {
				status = "FAILED: " + rec.Err
			}
			fmt.Fprintf(os.Stderr, "rhfleet: [%d/%d] %-24s %s (%.1fs elapsed)\n",
				done, total, rec.Key, status, time.Since(start).Seconds())
		}
	}

	res, err := campaign.Run(ctx, cs, opts)
	// Flush and close the checkpoint before publishing anything built
	// from it; a close failure is a durability failure.
	if cerr := cw.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if res != nil {
		fmt.Fprintf(os.Stderr, "rhfleet: %d run, %d resumed, %d retried, %d failed in %v\n",
			res.Completed, res.Skipped, res.Retried, res.Failed, time.Since(start).Round(time.Millisecond))
		if expE != nil {
			// Experiment campaign: the deliverable is the merged artifact,
			// and only a complete campaign publishes it — atomically, so
			// readers see the old file or the new one, never a torn one.
			if err == nil && res.Failed == 0 {
				if perr := publishArtifact(*expE, res, *format, *artOut); perr != nil {
					fatal(perr)
				}
			}
		} else {
			summary, merr := campaign.Aggregate(res).MarshalIndent()
			if merr != nil {
				fatal(merr)
			}
			fmt.Println(string(summary))
			// Only a complete campaign publishes the summary artifact, and it
			// lands atomically: readers see the old file or the new one,
			// never a torn in-between.
			if *sumOut != "" && err == nil {
				if werr := durable.AtomicWriteFile(*sumOut, append(summary, '\n'), 0o644); werr != nil {
					fatal(werr)
				}
			}
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, rh.ErrCampaignDrained):
			fmt.Fprintf(os.Stderr, "rhfleet: drained; checkpoint flushed — resume with -resume %s\n", *out)
			exit(3)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "rhfleet: interrupted (%v); resume with -resume %s\n", err, *out)
			exit(3)
		case res != nil && res.Quarantined > 0:
			fmt.Fprintf(os.Stderr, "rhfleet: partial result: %d jobs quarantined (modules %s); coverage accounting is in the summary\n",
				res.Quarantined, strings.Join(res.QuarantinedModules(), ", "))
			exit(4)
		default:
			fatal(err)
		}
	}
	exit(0)
}

// publishArtifact merges the experiment records, prints the artifact
// in the requested format, and — when a path is given — publishes the
// same bytes atomically via the durability layer.
func publishArtifact(e exp.Experiment, res *campaign.Result, format, path string) error {
	a, err := exp.MergeFleet(e, res.Records)
	if err != nil {
		return err
	}
	var payload []byte
	switch format {
	case "json":
		if payload, err = a.Encode(); err != nil {
			return err
		}
	case "tsv":
		payload = a.EncodeTSV()
	case "text":
		var buf bytes.Buffer
		if err := e.Render(&buf, a); err != nil {
			return err
		}
		payload = buf.Bytes()
	}
	os.Stdout.Write(payload)
	if path != "" {
		if err := durable.AtomicWriteFile(path, payload, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rhfleet: published %s (%d bytes)\n", path, len(payload))
	}
	return nil
}

// armDrainSignals installs the two-stage shutdown: the first
// SIGINT/SIGTERM closes the returned drain channel (dispatch stops,
// in-flight jobs finish under drainTO), the second — or the drain
// deadline — aborts hard via cancel.
func armDrainSignals(ctx context.Context, cancel context.CancelFunc, drainTO time.Duration) <-chan struct{} {
	drainCh := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer signal.Stop(sigCh)
		select {
		case s := <-sigCh:
			fmt.Fprintf(os.Stderr, "rhfleet: %v: draining — dispatch stopped, in-flight jobs get %v (signal again to abort now)\n", s, drainTO)
			close(drainCh)
			t := time.NewTimer(drainTO)
			defer t.Stop()
			select {
			case s = <-sigCh:
				fmt.Fprintf(os.Stderr, "rhfleet: %v: aborting\n", s)
			case <-t.C:
				fmt.Fprintln(os.Stderr, "rhfleet: drain deadline exceeded; aborting")
			case <-ctx.Done():
				return
			}
			cancel()
		case <-ctx.Done():
		}
	}()
	return drainCh
}

// buildWireSpec assembles the campaign's wire spec from a JSON file
// or flags. The file schema is the server's wire Spec — the same JSON
// submits to rhserved's POST /v1/campaigns unchanged — and the wire
// form is what a shard coordinator persists as spec.json for its
// workers.
func buildWireSpec(specPath, mfrs string, modules int, kind string, seed uint64, scale, temps string,
	workers, retries int, jobTO, backoff time.Duration, breaker, wdog int) (server.Spec, error) {
	if specPath != "" {
		return server.ReadSpec(specPath)
	}
	ws := server.Spec{
		Kind:             kind,
		ModulesPerMfr:    modules,
		Seed:             seed,
		Scale:            scale,
		Workers:          workers,
		MaxRetries:       retries,
		JobTimeoutMS:     jobTO.Milliseconds(),
		RetryBackoffMS:   backoff.Milliseconds(),
		BreakerThreshold: breaker,
		WatchdogFactor:   wdog,
	}
	for _, m := range strings.Split(mfrs, ",") {
		if m = strings.TrimSpace(m); m != "" {
			ws.Mfrs = append(ws.Mfrs, m)
		}
	}
	if temps != "" {
		for _, t := range strings.Split(temps, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
			if err != nil {
				return ws, fmt.Errorf("bad -temps value %q: %w", t, err)
			}
			ws.Temps = append(ws.Temps, v)
		}
	}
	return ws, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rhfleet: %v\n", err)
	exit(1)
}

func fatalUsage(err error) {
	fmt.Fprintf(os.Stderr, "rhfleet: %v\n", err)
	exit(2)
}
