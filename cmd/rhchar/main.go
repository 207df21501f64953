// Command rhchar runs the RowHammer characterization experiments that
// regenerate the paper's tables and figures.
//
// Usage:
//
//	rhchar -list
//	rhchar -exp fig11
//	rhchar -exp all -scale default
//	rhchar -exp fig3 -scale paper -seed 42 -workers 8 -timeout 10m
//	rhchar -exp fig5 -format json | jq '.rows[].values'
//	rhchar -exp fig5 -format json -out fig5.artifact.json
//
// Every experiment computes a structured artifact first and renders
// the text report from it, so -format json and -format tsv expose the
// exact numbers behind the text tables; -out publishes the bytes
// atomically (readers never see a torn file).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	rh "rowhammer"
	"rowhammer/internal/durable"
	"rowhammer/internal/exp"
	"rowhammer/internal/profiling"
)

// stopProfiles finishes any active pprof profiles; exit routes every
// termination through it because os.Exit skips deferred calls.
var stopProfiles = func() {}

func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

func main() {
	var (
		expID   = flag.String("exp", "", "experiment id to run (or \"all\")")
		scale   = flag.String("scale", "default", "measurement scale: tiny, default, paper")
		seed    = flag.Uint64("seed", rh.DefaultSeed, "master seed for module instances")
		format  = flag.String("format", "text", "output format: text (paper report), json (artifact), tsv (artifact)")
		outPath = flag.String("out", "", "publish the output atomically to this file instead of stdout")
		list    = flag.Bool("list", false, "list available experiments")
		workers = flag.Int("workers", 0, "max concurrent manufacturers (0 = one per CPU)")
		timeout = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhchar: %v\n", err)
		os.Exit(2)
	}
	stopProfiles = stopProf
	defer stopProfiles()

	// Reject nonsense before it reaches the worker pool: a negative
	// worker count or timeout is a usage error, not undefined behavior.
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "rhchar: -workers must be >= 0 (0 = one per CPU), got %d\n", *workers)
		exit(2)
	}
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "rhchar: -timeout must be >= 0 (0 = no limit), got %v\n", *timeout)
		exit(2)
	}
	if *format != "text" && *format != "json" && *format != "tsv" {
		fmt.Fprintf(os.Stderr, "rhchar: unknown format %q (text, json, tsv)\n", *format)
		exit(2)
	}

	if *list || *expID == "" {
		fmt.Println("Available experiments:")
		for _, e := range exp.All() {
			fmt.Printf("  %-8s %s (%s, artifact schema v%d)\n", e.ID, e.Title, e.Section, e.Schema)
		}
		if *expID == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	cfg := exp.Config{Seed: *seed, Workers: *workers}
	sc, geom, ok := rh.NamedScale(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "rhchar: unknown scale %q (tiny, default, paper)\n", *scale)
		exit(2)
	}
	cfg.Scale, cfg.Geometry = sc, geom

	// SIGTERM is what fleet schedulers and `timeout(1)` send; treat it
	// like Ctrl-C so a scheduled run cleans up instead of dying dirty.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The payload (rendered text or artifact bytes) goes to stdout, or
	// into a buffer published atomically via -out. Decorative banners
	// and timings stay on stdout only in interactive text mode; with a
	// machine format or -out they move to stderr so the payload stays
	// clean.
	var outBuf bytes.Buffer
	var payload io.Writer = os.Stdout
	banner := io.Writer(os.Stdout)
	if *outPath != "" {
		payload = &outBuf
	}
	if *outPath != "" || *format != "text" {
		banner = os.Stderr
	}

	run := func(e exp.Experiment) {
		fmt.Fprintf(banner, "=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		a, err := e.ComputeAll(ctx, cfg)
		var b []byte
		if err == nil {
			b, err = e.Encode(a, *format)
		}
		if err == nil {
			_, err = payload.Write(b)
		}
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "rhchar: %s aborted: %v\n", e.ID, ctx.Err())
			} else {
				fmt.Fprintf(os.Stderr, "rhchar: %s: %v\n", e.ID, err)
			}
			exit(1)
		}
		fmt.Fprintf(banner, "(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *expID == "all" {
		for _, e := range exp.All() {
			run(e)
		}
	} else {
		e := exp.ByID(*expID)
		if e == nil {
			fmt.Fprintf(os.Stderr, "rhchar: unknown experiment %q (use -list)\n", *expID)
			exit(2)
		}
		run(*e)
	}
	if *outPath != "" {
		if err := durable.AtomicWriteFile(*outPath, outBuf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "rhchar: publishing %s: %v\n", *outPath, err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "rhchar: published %s (%d bytes)\n", *outPath, outBuf.Len())
	}
}
