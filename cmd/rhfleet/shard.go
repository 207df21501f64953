package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	rh "rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/durable"
	"rowhammer/internal/inject"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/server"
	"rowhammer/internal/shard"
)

// The distributed modes. One campaign splits into N disjoint shards
// (internal/shard), each an independent `rhfleet -shard i/N` process
// with its own v2 checkpoint under -shard-dir, owned through a fenced
// lease from the lease service at -lease-url; `rhfleet -coordinate N`
// self-hosts that service (on -lease-listen), spawns and supervises
// the workers — reassigning a dead or stalled shard's remaining jobs
// to a fresh worker — and `rhfleet -merge-shards` folds the shard
// checkpoints into a summary or artifact byte-identical to a
// single-process run.
//
// Workers may run on any host that can reach the lease URL and the
// shared -shard-dir: every acquisition mints a monotonic fencing token
// enforced on each record append, and the coordinator supervises
// liveness through lease heartbeats.

// shardWorkerConfig parameterizes one -shard i/N worker run.
type shardWorkerConfig struct {
	assignment string
	dir        string
	rsv        server.Resolved
	profile    *inject.Profile
	quiet      bool
	timeout    time.Duration
	drainTO    time.Duration
	leaseURL   string
	leaseTTL   time.Duration
	netChaos   string
}

// leaseClient builds a lease/registry client for the -lease-url
// modes, wrapping its transport with the deterministic network chaos
// profile when one is armed (the -net-chaos flag, or RHFLEET_NETCHAOS
// from a coordinator drill). The same client speaks both halves of
// the placement layer: fenced shard leases and the worker registry.
func leaseClient(baseURL, chaosSpec string, seed uint64, label string) (*leasesvc.Client, error) {
	if chaosSpec == "" {
		chaosSpec = os.Getenv("RHFLEET_NETCHAOS")
	}
	c := &leasesvc.Client{BaseURL: strings.TrimRight(baseURL, "/"), Seed: seed}
	if chaosSpec != "" && chaosSpec != "none" {
		p, err := inject.ParseNet(chaosSpec)
		if err != nil {
			return nil, err
		}
		if p.Active() {
			c.HTTP = &http.Client{Transport: inject.WrapTransport(nil, p, label)}
			fmt.Fprintf(os.Stderr, "rhfleet: %s: network chaos active on lease client: %s\n", label, p)
		}
	}
	return c, nil
}

// runShardWorker is the -shard i/N mode: run exactly this shard's
// slice of the grid under its lease from -lease-url, heartbeating
// throughout, and exit with the same code conventions as a
// whole-campaign run.
func runShardWorker(cfg shardWorkerConfig) int {
	a, err := shard.ParseAssignment(cfg.assignment)
	if err != nil {
		fatalUsage(err)
	}
	ctx, drainCh, stop := runContext(cfg.timeout, cfg.drainTO)
	defer stop()

	runner := cfg.rsv.Runner
	if cfg.profile != nil {
		runner = inject.WrapRunner(runner, cfg.profile)
		fmt.Fprintf(os.Stderr, "rhfleet: shard %s: fault injection active: %s (seed %d)\n", a, cfg.profile, cfg.profile.Seed)
	}
	client, err := leaseClient(cfg.leaseURL, cfg.netChaos, cfg.rsv.Spec.Seed, fmt.Sprintf("shard-%d", a.Index))
	if err != nil {
		fatalUsage(err)
	}
	start := time.Now()
	rc := shard.RunConfig{
		Dir:           cfg.dir,
		Assignment:    a,
		Spec:          cfg.rsv.Spec,
		Runner:        runner,
		Drain:         drainCh,
		ArmCheckpoint: armFailpoint,
		Lease:         client,
		LeaseTTL:      cfg.leaseTTL,
		Log:           func(f string, args ...any) { fmt.Fprintf(os.Stderr, "rhfleet: "+f+"\n", args...) },
	}
	if !cfg.quiet {
		rc.Progress = shardProgress(a, start)
	}
	res, err := shard.RunShard(ctx, rc)
	if res != nil {
		fmt.Fprintf(os.Stderr, "rhfleet: shard %s: %d run, %d resumed, %d retried, %d failed in %v\n",
			a, res.Completed, res.Skipped, res.Retried, res.Failed, time.Since(start).Round(time.Millisecond))
	}
	o := outcome{err: err}
	if res != nil {
		o.quarantined = res.QuarantinedModules()
	}
	return conclude(o, "shard "+a.String(), "the coordinator (or a rerun) resumes it")
}

// shardProgress reports each finished job of shard a on stderr.
func shardProgress(a shard.Assignment, start time.Time) func(done, total int, rec rh.CampaignRecord) {
	return func(done, total int, rec rh.CampaignRecord) {
		status := "ok"
		if rec.Err != "" {
			status = "FAILED: " + rec.Err
		}
		fmt.Fprintf(os.Stderr, "rhfleet: shard %s [%d/%d] %-24s %s (%.1fs elapsed)\n",
			a, done, total, rec.Key, status, time.Since(start).Seconds())
	}
}

// fleetWorkerCfg parameterizes a -worker process: a fleet member that
// registers with the placement layer at -lease-url and pulls shard
// placements from the scheduler instead of being handed one on the
// command line.
type fleetWorkerCfg struct {
	id       string
	slots    int
	leaseURL string
	leaseTTL time.Duration
	netChaos string
	profile  *inject.Profile
	seed     uint64
	quiet    bool
	timeout  time.Duration
	drainTO  time.Duration
}

// runFleetWorker is the -worker mode: register with the worker
// registry, heartbeat, and execute whatever placements the scheduler
// assigns. Each placement resolves its own campaign from the
// spec.json the coordinator persisted into the placement's shard
// directory, verifies the campaign identity against the placement,
// and runs under the shard's fenced lease — exactly what a
// hand-started `rhfleet -shard i/N -lease-url ...` does, minus the
// hands.
func runFleetWorker(cfg fleetWorkerCfg) int {
	id := cfg.id
	if id == "" {
		id = leasesvc.DefaultOwner()
	}
	client, err := leaseClient(cfg.leaseURL, cfg.netChaos, cfg.seed, "worker "+id)
	if err != nil {
		fatalUsage(err)
	}
	ctx, drainCh, stop := runContext(cfg.timeout, cfg.drainTO)
	defer stop()
	logf := func(f string, args ...any) { fmt.Fprintf(os.Stderr, "rhfleet: "+f+"\n", args...) }

	run := func(ctx context.Context, p leasesvc.Placement, drain <-chan struct{}) error {
		rsv, err := server.ResolvePlacement(p)
		if err != nil {
			return err
		}
		runner := rsv.Runner
		if cfg.profile != nil {
			runner = inject.WrapRunner(runner, cfg.profile)
		}
		a := shard.Assignment{Index: p.Shard, Of: p.Of}
		rc := shard.RunConfig{
			Dir:           p.Dir,
			Assignment:    a,
			Spec:          rsv.Spec,
			Runner:        runner,
			Drain:         drain,
			ArmCheckpoint: armFailpoint,
			Lease:         client,
			LeaseTTL:      cfg.leaseTTL,
			Owner:         id,
			Log:           logf,
		}
		if !cfg.quiet {
			rc.Progress = shardProgress(a, time.Now())
		}
		_, err = shard.RunShard(ctx, rc)
		return err
	}

	err = shard.RunWorker(ctx, shard.WorkerConfig{
		Registry: client,
		ID:       id,
		Slots:    cfg.slots,
		TTL:      cfg.leaseTTL,
		Run:      run,
		Drain:    drainCh,
		Log:      logf,
	})
	// Draining is how a worker is asked to leave: a success, since the
	// scheduler reassigns whatever its placements did not finish.
	if errors.Is(err, campaign.ErrDrained) {
		fmt.Fprintf(os.Stderr, "rhfleet: worker %s drained; placements checkpointed — the scheduler reassigns what remains\n", id)
		return 0
	}
	return conclude(outcome{err: err}, "worker "+id, "the scheduler reassigns its placements")
}

// coordinatorConfig parameterizes a -coordinate N run.
type coordinatorConfig struct {
	dir         string
	shards      int
	wire        server.Spec
	rsv         server.Resolved
	faults      string
	quiet       bool
	timeout     time.Duration
	drainTO     time.Duration
	leaseTTL    time.Duration
	maxRespawns int
	leaseListen string
	outs        outputs
}

// serveLeases self-hosts the coordinator's lease service over HTTP on
// addr, returning the service, the URL spawned workers get as
// -lease-url, and a shutdown for the listener.
func serveLeases(addr string, ttl time.Duration) (*leasesvc.Service, string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, fmt.Errorf("lease-listen: %w", err)
	}
	svc := leasesvc.NewService(ttl)
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "rhfleet: lease service listening on %s\n", url)
	return svc, url, func() { srv.Close() }, nil
}

// runCoordinator is the -coordinate N mode: persist the wire spec,
// self-host the lease service, spawn one rhfleet -shard worker per
// incomplete shard, supervise leases, reassign dead shards, and merge.
func runCoordinator(cfg coordinatorConfig) int {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatal(err)
	}
	// Persist the wire spec first: workers are spawned with
	// `-spec <dir>/spec.json`, and any later merge or coordinator
	// restart reads the campaign from the directory itself.
	wb, err := json.MarshalIndent(cfg.wire, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := durable.AtomicWriteFile(shard.SpecPath(cfg.dir), append(wb, '\n'), 0o644); err != nil {
		fatal(err)
	}

	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	ctx, drainCh, stop := runContext(cfg.timeout, cfg.drainTO)
	defer stop()

	leases, leaseURL, leaseShutdown, err := serveLeases(cfg.leaseListen, cfg.leaseTTL)
	if err != nil {
		fatal(err)
	}
	defer leaseShutdown()

	failShard, failOff := parseShardFailpoint()
	chaosShard, chaosProfile := parseShardNetChaos()
	spawn := func(ctx context.Context, a shard.Assignment, gen int) (shard.WorkerHandle, error) {
		args := []string{
			"-shard", a.String(),
			"-shard-dir", cfg.dir,
			"-spec", shard.SpecPath(cfg.dir),
			"-lease-url", leaseURL, "-lease-ttl", cfg.leaseTTL.String(),
		}
		if cfg.quiet {
			args = append(args, "-quiet")
		}
		if cfg.faults != "" {
			args = append(args, "-fault-profile", cfg.faults)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		cmd.Env = workerEnv(a, gen, failShard, failOff, chaosShard, chaosProfile)
		cmd.SysProcAttr = workerSysProcAttr()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &execWorker{cmd: cmd}, nil
	}

	start := time.Now()
	res, rep, err := shard.Coordinate(ctx, shard.Config{
		Dir:         cfg.dir,
		Spec:        cfg.rsv.Spec,
		Shards:      cfg.shards,
		Spawn:       spawn,
		Leases:      leases,
		LeaseTTL:    cfg.leaseTTL,
		MaxRespawns: cfg.maxRespawns,
		Drain:       drainCh,
		Log:         func(f string, args ...any) { fmt.Fprintf(os.Stderr, "rhfleet: "+f+"\n", args...) },
	})
	if res != nil && rep != nil {
		fmt.Fprintf(os.Stderr, "rhfleet: coordinated %d shard(s): %d/%d job(s) recorded, %d failed in %v\n",
			cfg.shards, rep.Records, res.Total, rep.Failed, time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		return conclude(outcome{err: err}, "", fmt.Sprintf("rerun `rhfleet -coordinate %d -shard-dir %s` to resume", cfg.shards, cfg.dir))
	}
	return emitMerged(cfg.rsv, res, rep, cfg.outs)
}

// runMergeShards is the -merge-shards mode: fold whatever shard
// checkpoints exist under dir into the campaign deliverable. Partial
// directories merge too (exit 3, coverage accounted in the summary);
// a checkpoint from a different campaign is a named, typed refusal.
func runMergeShards(dir string, rsv server.Resolved, outs outputs) int {
	paths, err := filepath.Glob(shard.CheckpointGlob(dir))
	if err != nil {
		fatal(err)
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("no shard checkpoints (%s) found", shard.CheckpointGlob(dir)))
	}
	res, rep, err := shard.MergeShards(rsv.Spec, paths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhfleet: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "rhfleet: merged %d shard checkpoint(s): %d record(s), %d superseded, %d failed, %d missing\n",
		rep.Files, rep.Records, rep.Duplicates, rep.Failed, len(rep.Missing))
	return emitMerged(rsv, res, rep, outs)
}

// emitMerged prints and publishes a merged result exactly as the
// single-process path would: the fleet summary, written to -summary
// only when no job is missing, or the experiment artifact, which
// exists only when every shard succeeded. Exit codes follow exitCode:
// 0 complete, 3 incomplete (resumable), 4 quarantined coverage loss,
// 1 failed jobs.
func emitMerged(rsv server.Resolved, res *campaign.Result, rep *shard.MergeReport, outs outputs) int {
	o := outcome{missing: !rep.Complete(), failed: rep.Failed, quarantined: res.QuarantinedModules()}
	if rsv.Exp != nil && (o.missing || o.failed > 0) {
		fmt.Fprintf(os.Stderr, "rhfleet: experiment artifact not published: %d job(s) missing, %d failed\n",
			len(rep.Missing), rep.Failed)
		return exitCode(o)
	}
	if err := outs.publish(rsv, res, rep.Complete()); err != nil {
		fatal(err)
	}
	return exitCode(o)
}

// execWorker adapts an exec'd rhfleet -shard subprocess to the
// coordinator's WorkerHandle.
type execWorker struct{ cmd *exec.Cmd }

func (w *execWorker) Wait() error { return w.cmd.Wait() }
func (w *execWorker) Kill() {
	if p := w.cmd.Process; p != nil {
		p.Kill()
	}
}

// Drain forwards the coordinator's graceful shutdown: SIGTERM
// triggers the worker's own drain path (finish in-flight jobs, flush
// the checkpoint, exit 3).
func (w *execWorker) Drain() {
	if p := w.cmd.Process; p != nil {
		p.Signal(syscall.SIGTERM)
	}
}

// parseShardFailpoint reads RHFLEET_SHARD_FAILPOINT="i:off" — the
// crash-drill seam: arm RHFLEET_FAILPOINT=off on shard i's
// generation-0 worker only, so the drill kills exactly one worker at
// an exact checkpoint byte and the reassigned generation runs clean.
func parseShardFailpoint() (shardIdx int, off string) {
	v := os.Getenv("RHFLEET_SHARD_FAILPOINT")
	i, rest, ok := strings.Cut(v, ":")
	if !ok {
		return -1, ""
	}
	idx, err := strconv.Atoi(i)
	if err != nil || idx < 0 || rest == "" {
		return -1, ""
	}
	return idx, rest
}

// parseShardNetChaos reads RHFLEET_SHARD_NETCHAOS="i:profile" — the
// network chaos drill seam, shaped exactly like the failpoint seam:
// arm RHFLEET_NETCHAOS=profile on shard i's generation-0 worker only,
// so one worker rides out (or dies under) a deterministic partition
// while its reassigned generation runs on a clean network.
func parseShardNetChaos() (shardIdx int, profile string) {
	v := os.Getenv("RHFLEET_SHARD_NETCHAOS")
	i, rest, ok := strings.Cut(v, ":")
	if !ok {
		return -1, ""
	}
	idx, err := strconv.Atoi(i)
	if err != nil || idx < 0 || rest == "" {
		return -1, ""
	}
	return idx, rest
}

// workerEnv builds a shard worker's environment: the coordinator's
// own drill variables are stripped (a coordinator under drill must
// not arm every worker), then the per-shard failpoint and network
// chaos profile are armed on their targeted generation-0 workers.
func workerEnv(a shard.Assignment, gen, failShard int, failOff string, chaosShard int, chaosProfile string) []string {
	env := make([]string, 0, len(os.Environ())+2)
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "RHFLEET_FAILPOINT=") || strings.HasPrefix(kv, "RHFLEET_SHARD_FAILPOINT=") ||
			strings.HasPrefix(kv, "RHFLEET_NETCHAOS=") || strings.HasPrefix(kv, "RHFLEET_SHARD_NETCHAOS=") {
			continue
		}
		env = append(env, kv)
	}
	if a.Index == failShard && gen == 0 && failOff != "" {
		env = append(env, "RHFLEET_FAILPOINT="+failOff)
	}
	if a.Index == chaosShard && gen == 0 && chaosProfile != "" {
		env = append(env, "RHFLEET_NETCHAOS="+chaosProfile)
	}
	return env
}
