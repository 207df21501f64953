package main

import (
	"strings"
	"testing"
)

// TestValidateModeFlags pins the full mode-flag matrix: one role per
// process, each role's required companions, and one-line errors for
// every illegal mix.
func TestValidateModeFlags(t *testing.T) {
	cases := []struct {
		name string
		f    modeFlags
		want string // "" = legal; otherwise a substring of the error
	}{
		{"plain campaign", modeFlags{}, ""},
		{"shard worker", modeFlags{shard: "2/8", shardDir: "d", leaseURL: "http://h:1"}, ""},
		{"shard worker with remote leases", modeFlags{shard: "2/8", shardDir: "d", leaseURL: "http://h:1"}, ""},
		{"coordinator", modeFlags{coordinate: 4, shardDir: "d"}, ""},
		{"coordinator self-hosting leases", modeFlags{coordinate: 4, shardDir: "d", leaseListen: "127.0.0.1:0"}, ""},
		{"merge", modeFlags{mergeShards: true, shardDir: "d"}, ""},
		{"fleet worker", modeFlags{worker: true, leaseURL: "http://h:1"}, ""},
		{"fleet worker with id and slots", modeFlags{worker: true, leaseURL: "http://h:1", workerIDSet: true, slotsSet: true}, ""},

		{"shard and coordinate", modeFlags{shard: "1/2", coordinate: 2, shardDir: "d"}, "mutually exclusive"},
		{"shard and merge", modeFlags{shard: "1/2", mergeShards: true, shardDir: "d"}, "mutually exclusive"},
		{"coordinate and merge", modeFlags{coordinate: 2, mergeShards: true, shardDir: "d"}, "mutually exclusive"},
		{"worker and shard", modeFlags{worker: true, shard: "1/2", shardDir: "d", leaseURL: "u"}, "mutually exclusive"},
		{"worker and coordinate", modeFlags{worker: true, coordinate: 2, shardDir: "d", leaseURL: "u"}, "mutually exclusive"},
		{"all four roles", modeFlags{shard: "1/2", coordinate: 2, mergeShards: true, worker: true}, "mutually exclusive"},

		{"shard without dir", modeFlags{shard: "1/2"}, "require -shard-dir"},
		{"coordinate without dir", modeFlags{coordinate: 2}, "require -shard-dir"},
		{"merge without dir", modeFlags{mergeShards: true}, "require -shard-dir"},

		{"worker without lease url", modeFlags{worker: true}, "requires -lease-url"},
		{"worker with shard dir", modeFlags{worker: true, leaseURL: "u", shardDir: "d"}, "drop -shard-dir"},

		{"lease-listen without coordinate", modeFlags{leaseListen: "127.0.0.1:0"}, "requires -coordinate"},
		{"lease-listen on a shard worker", modeFlags{shard: "1/2", shardDir: "d", leaseListen: ":0"}, "requires -coordinate"},
		{"lease-listen and lease-url", modeFlags{coordinate: 2, shardDir: "d", leaseListen: ":0", leaseURL: "u"}, "mutually exclusive"},
		{"coordinator against external leases", modeFlags{coordinate: 4, shardDir: "d", leaseURL: "http://h:1"}, "mutually exclusive"},
		{"shard worker without lease url", modeFlags{shard: "2/8", shardDir: "d"}, "requires -lease-url"},

		{"worker-id without worker", modeFlags{workerIDSet: true}, "requires -worker"},
		{"slots without worker", modeFlags{slotsSet: true}, "requires -worker"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateModeFlags(tc.f)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("usage errors must be one line, got %q", err)
			}
		})
	}
}

// TestValidateOutputFlags: each output flag applies to one family of
// kinds, and naming it for the other is a usage error, not a no-op.
func TestValidateOutputFlags(t *testing.T) {
	cases := []struct {
		name       string
		experiment bool
		o          outputs
		want       string // "" = legal; otherwise a substring of the error
	}{
		{"measurement summary", false, outputs{format: "json", summary: "s.json"}, ""},
		{"experiment artifact", true, outputs{format: "json", artifact: "a.json"}, ""},
		{"experiment tsv", true, outputs{format: "tsv", artifact: "a.tsv"}, ""},
		{"experiment text", true, outputs{format: "text"}, ""},
		{"summary on experiment", true, outputs{format: "json", summary: "s.json"}, "-summary is for measurement kinds"},
		{"artifact on measurement", false, outputs{format: "json", artifact: "a.json"}, "-artifact is for experiment kinds"},
		{"tsv on measurement", false, outputs{format: "tsv"}, "-format tsv is for experiment kinds"},
		{"text on measurement", false, outputs{format: "text"}, "-format text is for experiment kinds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateOutputFlags(tc.experiment, tc.o)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}
