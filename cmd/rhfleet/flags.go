package main

import (
	"fmt"
	"strings"
)

// modeFlags is the subset of rhfleet's flags whose combination picks
// the process role: plain campaign, -shard worker, -coordinate,
// -merge-shards, or -worker (fleet member). validateModeFlags is the
// single place the legal combinations live, so every illegal mix dies
// with a one-line usage error instead of a confusing failure deep
// inside whichever mode happened to win.
type modeFlags struct {
	shard       string // -shard i/N
	coordinate  int    // -coordinate N
	mergeShards bool   // -merge-shards
	worker      bool   // -worker
	shardDir    string // -shard-dir
	leaseURL    string // -lease-url
	leaseListen string // -lease-listen, when given explicitly
	workerIDSet bool   // -worker-id was given explicitly
	slotsSet    bool   // -slots was given explicitly
}

// validateModeFlags enforces the flag matrix. Errors are one line and
// name the offending flags; fatalUsage turns them into exit 2.
func validateModeFlags(f modeFlags) error {
	var modes []string
	if f.shard != "" {
		modes = append(modes, "-shard")
	}
	if f.coordinate > 0 {
		modes = append(modes, "-coordinate")
	}
	if f.mergeShards {
		modes = append(modes, "-merge-shards")
	}
	if f.worker {
		modes = append(modes, "-worker")
	}
	if len(modes) > 1 {
		return fmt.Errorf("%s are mutually exclusive — pick one role per process", strings.Join(modes, " and "))
	}
	shardMode := f.shard != "" || f.coordinate > 0 || f.mergeShards
	switch {
	case shardMode && f.shardDir == "":
		return fmt.Errorf("-shard, -coordinate and -merge-shards require -shard-dir")
	case f.worker && f.leaseURL == "":
		return fmt.Errorf("-worker requires -lease-url (the placement layer it registers with)")
	case f.worker && f.shardDir != "":
		return fmt.Errorf("-worker takes shard directories from its placements; drop -shard-dir")
	case f.leaseListen != "" && f.coordinate <= 0:
		return fmt.Errorf("-lease-listen is a coordinator flag; it requires -coordinate")
	case f.coordinate > 0 && f.leaseURL != "":
		return fmt.Errorf("-coordinate and -lease-url are mutually exclusive: the coordinator self-hosts its lease service (-lease-listen picks the address)")
	case f.shard != "" && f.leaseURL == "":
		return fmt.Errorf("-shard requires -lease-url (the lease service that owns the shard: a coordinator's or an rhserved)")
	case f.workerIDSet && !f.worker:
		return fmt.Errorf("-worker-id requires -worker")
	case f.slotsSet && !f.worker:
		return fmt.Errorf("-slots requires -worker")
	}
	return nil
}

// validateOutputFlags rejects output flags that do nothing for the
// resolved kind: a measurement campaign publishes its JSON summary to
// -summary, an experiment campaign its artifact in -format to
// -artifact. The error is one line; fatalUsage turns it into exit 2.
func validateOutputFlags(experiment bool, o outputs) error {
	switch {
	case experiment && o.summary != "":
		return fmt.Errorf("-summary is for measurement kinds; an experiment campaign publishes -artifact")
	case !experiment && o.artifact != "":
		return fmt.Errorf("-artifact is for experiment kinds; a measurement campaign publishes -summary")
	case !experiment && o.format != "json":
		return fmt.Errorf("-format %s is for experiment kinds; a measurement campaign's summary is JSON", o.format)
	}
	return nil
}
