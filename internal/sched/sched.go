// Package sched implements a small memory-request scheduler simulation
// used by Defense Improvement 5 (§8.2): the memory controller can
// bound every row's open time through its row-buffer policy, denying
// attackers the tAggOn amplification of Obsv. 8. The simulation
// quantifies what that costs benign workloads whose row-buffer
// locality normally benefits from long-open rows.
package sched

import (
	"fmt"

	"rowhammer/internal/dram"
	"rowhammer/internal/rng"
)

// Request is one memory access.
type Request struct {
	Bank    int
	Row     int
	Col     int
	Arrival dram.Picos
	IsWrite bool
}

// Policy selects the row-buffer management strategy.
type Policy int

// Policies.
const (
	// OpenPage keeps a row open until a conflicting access arrives.
	OpenPage Policy = iota
	// ClosedPage precharges after every access.
	ClosedPage
	// CappedOpenPage is OpenPage with a bound on row-open time
	// (Defense Improvement 5): rows are force-precharged at the cap.
	CappedOpenPage
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case OpenPage:
		return "open-page"
	case ClosedPage:
		return "closed-page"
	case CappedOpenPage:
		return "capped-open-page"
	default:
		return "unknown"
	}
}

// Result summarizes a simulation.
type Result struct {
	Requests     int
	RowHits      int
	RowMisses    int // row conflict: wrong row open
	RowEmpty     int // bank precharged
	Acts         int64
	TotalLatency dram.Picos
	// MaxRowOpen is the longest observed row-open interval — the
	// security property the capped policy enforces.
	MaxRowOpen dram.Picos
	// End is the completion time of the last request.
	End dram.Picos
}

// AvgLatencyNs returns the mean request latency in nanoseconds.
func (r Result) AvgLatencyNs() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.TotalLatency) / float64(r.Requests) / 1000
}

// bank tracks one bank's scheduling state.
type bank struct {
	open     bool
	row      int
	openedAt dram.Picos
	ready    dram.Picos // earliest next command time
	lastCol  dram.Picos
	everCol  bool
}

// Simulate services requests in arrival order (FCFS per bank) under
// the policy; cap is the open-time bound for CappedOpenPage.
func Simulate(reqs []Request, tm dram.Timing, pol Policy, cap dram.Picos) (Result, error) {
	if pol == CappedOpenPage && cap <= 0 {
		return Result{}, fmt.Errorf("sched: capped policy needs a positive cap")
	}
	var res Result
	banks := map[int]*bank{}
	maxP := func(a, b dram.Picos) dram.Picos {
		if a > b {
			return a
		}
		return b
	}
	closeRow := func(b *bank, at dram.Picos) {
		if !b.open {
			return
		}
		openFor := at - b.openedAt
		if openFor > res.MaxRowOpen {
			res.MaxRowOpen = openFor
		}
		b.open = false
		b.ready = at + tm.TRP
	}
	for _, rq := range reqs {
		b := banks[rq.Bank]
		if b == nil {
			b = &bank{}
			banks[rq.Bank] = b
		}
		start := maxP(rq.Arrival, b.ready)

		// Capped policy: if the open row would exceed the cap by the
		// time this request is serviced, it was force-precharged at
		// the cap boundary.
		if pol == CappedOpenPage && b.open {
			deadline := b.openedAt + cap
			if start >= deadline {
				closeAt := maxP(deadline, b.openedAt+tm.TRAS)
				closeRow(b, closeAt)
				start = maxP(start, b.ready)
			}
		}

		var done dram.Picos
		switch {
		case b.open && b.row == rq.Row:
			// Row hit: column access only.
			res.RowHits++
			colAt := start
			if b.everCol {
				colAt = maxP(colAt, b.lastCol+tm.TCCD)
			}
			b.lastCol, b.everCol = colAt, true
			done = colAt + tm.TRCD/2 // CAS-to-data proxy
		case b.open:
			// Row conflict: precharge, activate, access.
			res.RowMisses++
			closeAt := maxP(start, b.openedAt+tm.TRAS)
			closeRow(b, closeAt)
			actAt := b.ready
			b.open, b.row, b.openedAt = true, rq.Row, actAt
			b.everCol = false
			res.Acts++
			colAt := actAt + tm.TRCD
			b.lastCol, b.everCol = colAt, true
			done = colAt + tm.TRCD/2
		default:
			// Bank precharged: activate, access.
			res.RowEmpty++
			actAt := start
			b.open, b.row, b.openedAt = true, rq.Row, actAt
			b.everCol = false
			res.Acts++
			colAt := actAt + tm.TRCD
			b.lastCol, b.everCol = colAt, true
			done = colAt + tm.TRCD/2
		}

		if pol == ClosedPage {
			closeRow(b, maxP(done, b.openedAt+tm.TRAS))
		}
		res.Requests++
		res.TotalLatency += done - rq.Arrival
		if done > res.End {
			res.End = done
		}
	}
	// Close everything at the end so MaxRowOpen accounts for the tail.
	for _, b := range banks {
		if b.open {
			end := maxP(res.End, b.openedAt+tm.TRAS)
			if pol == CappedOpenPage && end > b.openedAt+cap {
				end = b.openedAt + maxP(cap, tm.TRAS)
			}
			closeRow(b, end)
		}
	}
	return res, nil
}

// WorkloadConfig parameterizes the synthetic request generator.
type WorkloadConfig struct {
	Requests int
	Banks    int
	Rows     int
	Cols     int
	// Locality is the probability that a request reuses the previous
	// row of its bank (row-buffer-friendly streaming: high; random
	// access: low).
	Locality float64
	// InterArrival is the mean gap between requests.
	InterArrival dram.Picos
	Seed         uint64
}

// Generate builds a synthetic request stream.
func Generate(cfg WorkloadConfig) []Request {
	s := rng.NewStream(rng.Hash64(cfg.Seed, 0x5c4e))
	reqs := make([]Request, 0, cfg.Requests)
	lastRow := make([]int, cfg.Banks)
	var now dram.Picos
	for i := 0; i < cfg.Requests; i++ {
		bank := s.Intn(cfg.Banks)
		row := lastRow[bank]
		if i == 0 || !s.Bernoulli(cfg.Locality) {
			row = s.Intn(cfg.Rows)
			lastRow[bank] = row
		}
		reqs = append(reqs, Request{
			Bank:    bank,
			Row:     row,
			Col:     s.Intn(cfg.Cols),
			Arrival: now,
			IsWrite: s.Bernoulli(0.3),
		})
		now += dram.Picos(float64(cfg.InterArrival) * (0.5 + s.Float64()))
	}
	return reqs
}
