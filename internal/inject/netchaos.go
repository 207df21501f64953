package inject

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rowhammer/internal/rng"
)

// Network fault channels — separate keyed streams per fault class,
// like the runner channels in inject.go.
const (
	chNetDrop   = "netdrop"
	chNetOneWay = "netoneway"
	chNetErr    = "neterr"
	chNetLat    = "netlat"
)

// Sentinel errors of the network harness. Both model a partition, but
// from opposite sides of the delivery: a dropped request was never
// seen by the server; a lost response was fully processed server-side
// and only the answer vanished — the case that forces idempotent,
// fenced protocols.
var (
	ErrRequestDropped = errors.New("inject: request dropped (network fault)")
	ErrResponseLost   = errors.New("inject: response lost (one-way partition)")
)

// NetProfile configures deterministic HTTP-path fault injection.
// Every decision is a pure function of (Seed, channel, endpoint key,
// per-transport op counter), so one seed replays one exact fault
// schedule. The zero value injects nothing.
type NetProfile struct {
	// Name labels the profile in logs.
	Name string
	// Seed keys every decision.
	Seed uint64

	// DropRate is the probability a request is dropped before delivery
	// (the server never sees it).
	DropRate float64
	// OneWayRate is the probability the request is delivered and
	// processed but its response is lost on the way back.
	OneWayRate float64
	// ErrRate is the probability of a synthesized 503 (a proxy or
	// overloaded peer answering for the real server).
	ErrRate float64
	// LatencyRate and Latency inject wall-clock stalls before
	// delivery; combined with client timeouts they become timed-out
	// attempts.
	LatencyRate float64
	Latency     time.Duration

	// PartitionFrom/PartitionFor define a hard one-way partition
	// window in transport-op space: ops in [From, From+For) deliver
	// their request but always lose the response. For < 0 leaves the
	// partition open forever. PartitionFrom < 0 disables the window.
	PartitionFrom int64
	PartitionFor  int64

	// MaxOps bounds the faulty prefix: transport ops at index >= MaxOps
	// always run clean (0 = faults forever). The convergence knob — a
	// retried protocol under any MaxOps-bounded profile must finish
	// with the same bytes as a clean run.
	MaxOps int64
}

// NetFlaky returns a transiently lossy network: drops, one-way
// losses, 503s and latency spikes over the first maxOps transport
// operations, clean afterwards.
func NetFlaky(seed uint64, maxOps int64) *NetProfile {
	return &NetProfile{
		Name: "flaky", Seed: seed,
		DropRate: 0.15, OneWayRate: 0.1, ErrRate: 0.1,
		LatencyRate: 0.2, Latency: 2 * time.Millisecond,
		PartitionFrom: -1, MaxOps: maxOps,
	}
}

// NetPartition returns a hard one-way partition covering transport
// ops [from, from+dur) (dur < 0 = never heals), with no other faults.
func NetPartition(seed uint64, from, dur int64) *NetProfile {
	return &NetProfile{Name: "partition", Seed: seed, PartitionFrom: from, PartitionFor: dur}
}

// Active reports whether the profile can inject anything.
func (p *NetProfile) Active() bool {
	if p == nil {
		return false
	}
	return p.DropRate > 0 || p.OneWayRate > 0 || p.ErrRate > 0 || p.LatencyRate > 0 ||
		p.PartitionFrom >= 0
}

// String renders the profile for logs.
func (p *NetProfile) String() string {
	if p == nil {
		return "none"
	}
	if p.Name != "" {
		return p.Name
	}
	return "custom"
}

// hit decides one per-op fault: a pure function of (seed, channel,
// endpoint key, transport op counter).
func (p *NetProfile) hit(rate float64, channel string, key, op uint64) bool {
	if rate <= 0 {
		return false
	}
	h := rng.Hash64(p.Seed, rng.HashString(channel), key, op)
	return rng.Uniform01(h) < rate
}

// inPartition reports whether transport op lies in the partition
// window.
func (p *NetProfile) inPartition(op int64) bool {
	if p.PartitionFrom < 0 || op < p.PartitionFrom {
		return false
	}
	return p.PartitionFor < 0 || op < p.PartitionFrom+p.PartitionFor
}

// clean reports whether op is past the faulty prefix.
func (p *NetProfile) clean(op int64) bool { return p.MaxOps > 0 && op >= p.MaxOps }

// ParseNet builds a network profile from its CLI syntax: "+"-separated
// terms —
//
//	none | flaky | partition=FROM:FOR
//	drop=RATE | oneway=RATE | err=RATE | latency=RATE:DUR
//	seed=N | maxops=N
//
// e.g. "flaky+seed=7+maxops=40", "partition=0:-1",
// "drop=0.3+latency=0.2:5ms". "none" or "" yield nil (no injection).
// FOR may be -1 for a partition that never heals.
func ParseNet(s string) (*NetProfile, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	p := &NetProfile{Name: s, Seed: 1, PartitionFrom: -1}
	seen := false
	parseRate := func(term, prefix string) (float64, error) {
		v, err := strconv.ParseFloat(strings.TrimPrefix(term, prefix), 64)
		if err != nil || v < 0 || v > 1 {
			return 0, fmt.Errorf("inject: bad rate in %q (want 0..1)", term)
		}
		return v, nil
	}
	for _, term := range strings.Split(s, "+") {
		term = strings.TrimSpace(term)
		switch {
		case term == "flaky":
			f := NetFlaky(p.Seed, 0)
			p.DropRate, p.OneWayRate, p.ErrRate = f.DropRate, f.OneWayRate, f.ErrRate
			p.LatencyRate, p.Latency = f.LatencyRate, f.Latency
			seen = true
		case strings.HasPrefix(term, "partition="):
			fromStr, forStr, ok := strings.Cut(strings.TrimPrefix(term, "partition="), ":")
			if !ok {
				return nil, fmt.Errorf("inject: bad partition %q (want partition=FROM:FOR)", term)
			}
			from, err1 := strconv.ParseInt(fromStr, 10, 64)
			dur, err2 := strconv.ParseInt(forStr, 10, 64)
			if err1 != nil || err2 != nil || from < 0 {
				return nil, fmt.Errorf("inject: bad partition %q", term)
			}
			p.PartitionFrom, p.PartitionFor = from, dur
			seen = true
		case strings.HasPrefix(term, "drop="):
			v, err := parseRate(term, "drop=")
			if err != nil {
				return nil, err
			}
			p.DropRate = v
			seen = true
		case strings.HasPrefix(term, "oneway="):
			v, err := parseRate(term, "oneway=")
			if err != nil {
				return nil, err
			}
			p.OneWayRate = v
			seen = true
		case strings.HasPrefix(term, "err="):
			v, err := parseRate(term, "err=")
			if err != nil {
				return nil, err
			}
			p.ErrRate = v
			seen = true
		case strings.HasPrefix(term, "latency="):
			rateStr, durStr, ok := strings.Cut(strings.TrimPrefix(term, "latency="), ":")
			if !ok {
				return nil, fmt.Errorf("inject: bad latency %q (want latency=RATE:DUR)", term)
			}
			rate, err := strconv.ParseFloat(rateStr, 64)
			if err != nil || rate < 0 || rate > 1 {
				return nil, fmt.Errorf("inject: bad rate in %q (want 0..1)", term)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("inject: bad duration in %q: %v", term, err)
			}
			p.LatencyRate, p.Latency = rate, d
			seen = true
		case strings.HasPrefix(term, "seed="):
			n, err := strconv.ParseUint(strings.TrimPrefix(term, "seed="), 0, 64)
			if err != nil {
				return nil, fmt.Errorf("inject: bad seed in %q: %w", term, err)
			}
			p.Seed = n
		case strings.HasPrefix(term, "maxops="):
			n, err := strconv.ParseInt(strings.TrimPrefix(term, "maxops="), 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("inject: bad maxops in %q", term)
			}
			p.MaxOps = n
		default:
			return nil, fmt.Errorf("inject: unknown net-chaos term %q (have none, flaky, partition=from:for, drop=, oneway=, err=, latency=rate:dur, seed=, maxops=)", term)
		}
	}
	if !seen {
		return nil, fmt.Errorf("inject: net profile %q sets options but no fault class", s)
	}
	return p, nil
}

// chaosTransport injects the profile into an HTTP client path. The op
// counter is per-transport, so two workers with the same profile and
// different labels see different (but each reproducible) schedules.
type chaosTransport struct {
	base http.RoundTripper
	p    *NetProfile
	key  uint64
	op   atomic.Int64
}

// WrapTransport wraps base with the profile's fault schedule, keyed
// by label (e.g. "shard-3"). A nil or inactive profile returns base
// unchanged; a nil base wraps http.DefaultTransport.
func WrapTransport(base http.RoundTripper, p *NetProfile, label string) http.RoundTripper {
	if !p.Active() {
		if base == nil {
			return http.DefaultTransport
		}
		return base
	}
	if base == nil {
		base = http.DefaultTransport
	}
	return &chaosTransport{base: base, p: p, key: rng.HashString(label)}
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := t.op.Add(1) - 1
	p := t.p
	if p.clean(op) {
		return t.base.RoundTrip(req)
	}
	if p.inPartition(op) {
		// One-way partition: deliver the request — the server acts on
		// it — then lose the answer. The cruellest case for a lease
		// protocol: heartbeats land, acknowledgements don't.
		return t.deliverAndLose(req)
	}
	if p.hit(p.DropRate, chNetDrop, t.key, uint64(op)) {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w (op %d)", ErrRequestDropped, op)
	}
	if p.hit(p.LatencyRate, chNetLat, t.key, uint64(op)) {
		if err := sleepCtx(req.Context(), p.Latency); err != nil {
			return nil, err
		}
	}
	if p.hit(p.ErrRate, chNetErr, t.key, uint64(op)) {
		if req.Body != nil {
			req.Body.Close()
		}
		return synth503(req), nil
	}
	if p.hit(p.OneWayRate, chNetOneWay, t.key, uint64(op)) {
		return t.deliverAndLose(req)
	}
	return t.base.RoundTrip(req)
}

// deliverAndLose performs the real round trip, discards the result,
// and reports the response as lost.
func (t *chaosTransport) deliverAndLose(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body.Close()
	}
	return nil, ErrResponseLost
}

// synth503 fabricates the response an overloaded proxy would send.
func synth503(req *http.Request) *http.Response {
	return &http.Response{
		Status:     "503 Service Unavailable",
		StatusCode: http.StatusServiceUnavailable,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": []string{"text/plain"}},
		Body:    http.NoBody,
		Request: req,
	}
}
