// Command rhserved is the campaign-as-a-service daemon: a
// long-running HTTP server that accepts characterization campaign
// specs, runs them concurrently on the fleet engine (FIFO scheduling,
// per-campaign worker budgets, crash-safe v2 checkpoints), and serves
// the resulting artifacts from an indexed, queryable on-disk store.
//
// Sharded campaigns ("shards": N) are placed across the daemon's fleet:
// the daemon registers its own in-process member (worker ID rhserved,
// -max-active × -worker-budget slots) with its worker registry, and
// rhfleet -worker processes on other hosts may join it over
// /v1/workers. Every shard attempt runs under a fenced lease from the
// same service.
//
// Usage:
//
//	rhserved -store /var/lib/rhserved
//	rhserved -addr 127.0.0.1:8077 -store ./store -max-active 2 -worker-budget 4
//
// API (see the README's "Campaign server" section for curl examples):
//
//	POST /v1/campaigns              submit a spec (same JSON as rhfleet -spec)
//	GET  /v1/campaigns              list campaigns
//	GET  /v1/campaigns/{id}         one campaign's status
//	GET  /v1/campaigns/{id}/events  progress stream (SSE) until terminal
//	GET  /v1/artifacts?...          query the artifact index
//	GET  /v1/artifacts/{id}         raw artifact bytes (byte-identical to rhchar)
//	GET  /v1/artifacts/{id}/rows    filtered, key-sorted artifact rows
//	POST /v1/leases/{acquire,beat,release}  fenced shard leases for rhfleet -lease-url
//	GET  /v1/leases                 lease inventory
//	POST /v1/workers/{register,beat,deregister}  fleet worker registry (rhfleet -worker)
//	GET  /v1/workers                registered-worker inventory
//	GET  /v1/stats                  placement-layer counters
//	GET  /healthz                   liveness
//
// Durability: artifacts land via atomic rename, the index is an
// fsynced CRC-trailed append-only log, and every campaign checkpoints
// in the v2 format — so rhserved can be SIGKILLed at any instant and
// the next start reloads the index, re-enqueues interrupted campaigns
// and resumes them from their checkpoints, converging to the same
// artifact bytes. The store directory is guarded by an advisory flock:
// one daemon per store, dropped automatically by the kernel on death.
//
// Shutdown: the first SIGINT/SIGTERM drains — no new campaigns are
// accepted, dispatch stops, in-flight jobs finish and checkpoint, the
// HTTP listener closes, and rhserved exits 0 (interrupted campaigns
// resume on the next start). A second signal, or the drain deadline,
// aborts hard with exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rowhammer/internal/durable"
	"rowhammer/internal/leasesvc"
	"rowhammer/internal/server"
	"rowhammer/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8077", "HTTP listen address")
		storeDir = flag.String("store", "", "artifact store directory (required; created if missing)")
		maxAct   = flag.Int("max-active", 2, "campaigns running concurrently; the rest queue FIFO")
		maxQ     = flag.Int("max-queued", 0, "bound the FIFO submit queue; a full queue answers 429 with Retry-After (0 = unbounded)")
		budget   = flag.Int("worker-budget", 0, "worker-pool cap per campaign (0 = no cap)")
		drainTO  = flag.Duration("drain-timeout", 60*time.Second, "grace period for in-flight jobs after the first SIGINT/SIGTERM")
		maxSpec  = flag.Int64("max-spec-bytes", server.DefaultMaxSpecBytes, "largest accepted POST /v1/campaigns body; larger specs answer 413")
		leaseTTL = flag.Duration("lease-ttl", leasesvc.DefaultTTL, "default TTL for shard leases served under /v1/leases (rhfleet -lease-url workers)")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "rhserved: -store is required")
		os.Exit(2)
	}

	st, report, err := store.Open(*storeDir)
	if err != nil {
		if errors.Is(err, durable.ErrLocked) {
			fatal(fmt.Errorf("store %s is served by another rhserved: %w", *storeDir, err))
		}
		fatal(err)
	}
	defer st.Close()
	logf("store %s: %d artifact(s) loaded", *storeDir, report.Loaded)
	if report.DroppedLines > 0 || len(report.DroppedPayloads) > 0 {
		logf("store %s: dropped %d corrupt index line(s) and %d corrupt payload(s) %v",
			*storeDir, report.DroppedLines, len(report.DroppedPayloads), report.DroppedPayloads)
	}

	// One lease service carries both halves of the placement layer:
	// fenced shard leases under /v1/leases and the worker registry
	// under /v1/workers. Every sharded campaign is placed across the
	// workers registered here — the manager's own member, which
	// NewManager registers, and any rhfleet -worker that joins.
	fleet := leasesvc.NewService(*leaseTTL)

	mgr, err := server.NewManager(st, server.ManagerConfig{
		MaxActive:    *maxAct,
		MaxQueued:    *maxQ,
		WorkerBudget: *budget,
		Fleet:        fleet,
		Log:          logf,
	})
	if err != nil {
		fatal(err)
	}

	// Take over SIGINT/SIGTERM before anything can reach the daemon: a
	// signal sent right after the first /healthz answer must drain, not
	// hit the default action and kill the process.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The smoke test (and humans with -addr :0) read the bound address
	// off this line.
	logf("listening on %s", ln.Addr())

	api := server.New(mgr, st)
	api.SetMaxSpecBytes(*maxSpec)
	// The placement layer rides the same mux and listener: rhfleet
	// -lease-url and -worker processes and campaign clients share one
	// endpoint.
	api.Mount(fleet.Register)

	// ReadHeaderTimeout caps how long a client may dribble its request
	// headers (slow-loris); IdleTimeout reclaims parked keep-alive
	// connections. No overall write timeout: /v1/campaigns/{id}/events
	// is a legitimately long-lived SSE stream.
	httpSrv := &http.Server{
		Handler:           api.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		mgr.Close()
		fatal(err)
	case s := <-sigCh:
		logf("%v: draining — no new campaigns, in-flight jobs get %v (signal again to abort)", s, *drainTO)
	}

	// Graceful drain, racing a second signal and the deadline.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	go func() {
		select {
		case s := <-sigCh:
			logf("%v: aborting", s)
			cancel()
		case <-drainCtx.Done():
		}
	}()
	drainErr := mgr.Drain(drainCtx)
	httpSrv.Shutdown(drainCtx)
	if drainErr != nil {
		logf("drain incomplete (%v); aborting in-flight jobs — their checkpoints are resumable", drainErr)
		mgr.Close()
		st.Close()
		os.Exit(1)
	}
	st.Close()
	logf("drained cleanly; interrupted campaigns resume on next start")
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rhserved: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rhserved: %v\n", err)
	os.Exit(1)
}
