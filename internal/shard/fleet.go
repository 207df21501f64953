package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"rowhammer/internal/campaign"
	"rowhammer/internal/leasesvc"
)

// errLeaseLapsed marks a fleet attempt whose shard lease, once held,
// went unheld: the worker finished, drained, or died — the supervision
// loop re-reads the checkpoint to find out which, exactly as it does
// for a local worker's exit code.
var errLeaseLapsed = errors.New("shard lease lapsed or was released")

// fleetAttempt is one generation of one shard as the scheduler tracks
// it: where it is placed and what its lease has shown so far.
type fleetAttempt struct {
	a      Assignment
	gen    int
	worker string // "" while unplaced
	// baseTok is the lease's fencing token when the attempt started;
	// any later token is an acquire that happened on this attempt's
	// watch. Without it a fast shard whose acquire→run→release fits
	// entirely between two observations looks never-started and gets
	// re-placed (and rebalanced) forever.
	baseTok  uint64
	sawHeld  bool // the lease was observed held during this attempt
	held     bool // ... on the most recent tick
	lastDone int
	draining bool
	// starving is set while the placed worker has free capacity yet
	// the shard's lease stays unheld — the bound that turns a
	// placement a worker can never start (bad spec, unreadable dir)
	// into a normal reassignment instead of a hang.
	starving   time.Time
	waitLogged bool
}

// fleetExecutor places shard attempts onto workers registered with
// the lease service's worker registry and supervises them through
// their shard leases alone: an attempt is alive exactly while its
// lease is held, its throughput is the lease's done counter, and
// "kill" is withdrawing the placement — fencing makes the handover
// safe whether or not the worker ever hears about it.
type fleetExecutor struct {
	svc      *leasesvc.Service
	dir      string
	hash     string
	parts    []Assignment
	jobs     map[int]int // shard index → job count
	total    int
	ttl      time.Duration
	logf     func(format string, args ...any)
	progress func(done, total int)
	now      func() time.Time

	events   chan exitEvent
	attempts map[int]*fleetAttempt
	rates    *rateTracker
	// starved remembers, per shard, the worker whose starvation bound
	// last fired — the next placement avoids it when any alternative
	// exists, since the starved worker usually still looks least
	// loaded and landing there again just burns another respawn.
	starved map[int]string
	// lastMove is when rebalance last moved a shard.
	lastMove time.Time
}

func newFleetExecutor(svc *leasesvc.Service, dir string, spec campaign.Spec, parts []Assignment, ttl time.Duration, logf func(string, ...any), progress func(done, total int)) *fleetExecutor {
	jobs := make(map[int]int, len(parts))
	total := 0
	for _, a := range parts {
		n := len(a.Jobs(spec))
		jobs[a.Index] = n
		total += n
	}
	return &fleetExecutor{
		svc: svc, dir: dir, hash: spec.IdentityHash(),
		parts: parts, jobs: jobs, total: total, ttl: ttl,
		logf: logf, progress: progress, now: time.Now,
		events:   make(chan exitEvent, len(parts)),
		attempts: make(map[int]*fleetAttempt, len(parts)),
		rates:    newRateTracker(),
		starved:  map[int]string{},
	}
}

func (e *fleetExecutor) placement(a Assignment) leasesvc.Placement {
	return leasesvc.Placement{Campaign: e.hash, Dir: e.dir, Shard: a.Index, Of: a.Of}
}

// startPatience bounds how long a queued placement may sit unstarted
// on a worker with free capacity. It must exceed the worker's own
// patient-acquire window (4×TTL), or a successor politely waiting for
// a predecessor's lease to age out would be judged wedged.
func (e *fleetExecutor) startPatience() time.Duration { return 6 * e.ttl }

func (e *fleetExecutor) Start(ctx context.Context, a Assignment, gen int) error {
	at := &fleetAttempt{a: a, gen: gen}
	done := 0
	if v, ok, err := e.svc.View(ctx, e.placement(a).LeaseKey()); err == nil && ok {
		at.baseTok = v.Token
		done = v.Done
	}
	// Baseline the shard's done count now (credited to nobody), so
	// even a shard whose entire run fits between two observations
	// credits its worker the full delta when the lapse is observed.
	e.rates.observe("", a.Index, done, e.now())
	e.attempts[a.Index] = at
	e.place(at, e.aliveWorkers())
	return nil
}

func (e *fleetExecutor) Kill(a Assignment) {
	at := e.attempts[a.Index]
	if at == nil {
		return
	}
	e.finish(at, errors.New("placement withdrawn by coordinator"))
}

func (e *fleetExecutor) Drain(a Assignment) {
	at := e.attempts[a.Index]
	if at == nil || at.draining {
		return
	}
	at.draining = true
	if at.worker != "" {
		e.svc.Unassign(at.worker, e.placement(a))
	}
	if !at.sawHeld {
		// Never started: nothing to wait for.
		e.finish(at, errors.New("drained before start"))
	}
	// Started: the worker sees the withdrawal on its next beat, drains
	// the shard, and releases the lease — Tick then finishes the
	// attempt through the normal lapse path.
}

func (e *fleetExecutor) Events() <-chan exitEvent { return e.events }

func (e *fleetExecutor) Close() {
	for _, at := range e.attempts {
		if at.worker != "" {
			e.svc.Unassign(at.worker, e.placement(at.a))
		}
	}
	e.attempts = map[int]*fleetAttempt{}
}

// finish retires an attempt and reports its termination. The
// placement is withdrawn so the worker stops caring about a shard the
// scheduler no longer tracks.
func (e *fleetExecutor) finish(at *fleetAttempt, err error) {
	if at.worker != "" {
		e.svc.Unassign(at.worker, e.placement(at.a))
	}
	delete(e.attempts, at.a.Index)
	e.events <- exitEvent{idx: at.a.Index, gen: at.gen, err: err}
}

func (e *fleetExecutor) aliveWorkers() map[string]leasesvc.WorkerView {
	out := map[string]leasesvc.WorkerView{}
	for _, w := range e.svc.Workers() {
		if w.Alive {
			out[w.ID] = w
		}
	}
	return out
}

// Tick is the whole scheduler: observe every attempt's lease, retire
// attempts whose lease lapsed, re-place attempts whose worker
// vanished before starting, bound wedged placements, heal assignments
// a re-registered worker lost, and rebalance queued shards off slow
// workers.
func (e *fleetExecutor) Tick() {
	ctx := context.Background()
	workers := e.aliveWorkers()
	now := e.now()

	// One lease observation per attempt feeds the rebalancer's
	// throughput signal.
	for _, at := range e.attempts {
		v, ok, err := e.svc.View(ctx, e.placement(at.a).LeaseKey())
		at.held = err == nil && ok && v.Held
		if err == nil && ok {
			at.lastDone = v.Done
		}
		if at.held {
			at.sawHeld = true
			delete(e.starved, at.a.Index)
			e.rates.observe(at.worker, at.a.Index, v.Done, now)
		} else if err == nil && ok && v.Token > at.baseTok {
			// The lease was acquired — and released — entirely between
			// observations: the shard ran on this attempt's watch even
			// though no tick caught it held. Mark it started so the lapse path
			// below retires it and the checkpoint decides the verdict,
			// and credit the run to the worker so fast workers still
			// earn a throughput signal.
			at.sawHeld = true
			delete(e.starved, at.a.Index)
			e.rates.observe(at.worker, at.a.Index, v.Done, now)
		}
	}

	// Busy slots are judged service-wide, not from this executor's
	// attempts alone: a worker's capacity may be occupied by another
	// campaign's placements (rhserved runs several against one shared
	// registry), which this executor can't see in its own attempt set.
	// Count every assignment whose shard lease is held, whoever placed
	// it, so a genuinely busy worker never starts the starving clock.
	busy := map[string]int{}
	for id, w := range workers {
		for _, p := range w.Assignments {
			if v, ok, err := e.svc.View(ctx, p.LeaseKey()); err == nil && ok && v.Held {
				busy[id]++
			}
		}
	}

	if e.progress != nil {
		done := 0
		for _, a := range e.parts {
			if v, ok, err := e.svc.View(ctx, e.placement(a).LeaseKey()); err == nil && ok {
				d := v.Done
				if m := e.jobs[a.Index]; d > m {
					d = m
				}
				done += d
			}
		}
		e.progress(done, e.total)
	}

	for _, at := range e.snapshot() {
		if at.held {
			at.starving = time.Time{}
			continue
		}
		if at.sawHeld {
			e.finish(at, errLeaseLapsed)
			continue
		}
		if at.draining {
			continue
		}
		if at.worker == "" || workers[at.worker].ID == "" {
			if at.worker != "" {
				e.logf("fleet: shard %s: worker %s gone before start; re-placing", at.a, at.worker)
				e.svc.Unassign(at.worker, e.placement(at.a))
				at.worker = ""
			}
			e.place(at, workers)
			continue
		}
		// Queued on a live worker. A worker with a free slot that still
		// does not pick the shard up is wedged on it; bound that
		// instead of hanging the campaign.
		if busy[at.worker] < workers[at.worker].Slots {
			if at.starving.IsZero() {
				at.starving = now
			}
			if now.Sub(at.starving) > e.startPatience() {
				e.starved[at.a.Index] = at.worker
				e.finish(at, fmt.Errorf("worker %s never acquired the shard lease within %s", at.worker, e.startPatience()))
			}
		} else {
			at.starving = time.Time{}
		}
	}

	e.reconcile(workers)
	e.rebalance(workers)
}

// snapshot copies the attempt set so retirement during iteration is
// safe.
func (e *fleetExecutor) snapshot() []*fleetAttempt {
	out := make([]*fleetAttempt, 0, len(e.attempts))
	for _, at := range e.attempts {
		out = append(out, at)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].a.Index < out[j].a.Index })
	return out
}

// remaining estimates shard idx's unfinished jobs from its last lease
// observation.
func (e *fleetExecutor) remaining(idx int) int {
	r := e.jobs[idx] - e.rates.doneOf(idx)
	if r < 0 {
		return 0
	}
	return r
}

// loads sums each worker's outstanding jobs across its attempts.
func (e *fleetExecutor) loads() map[string]int {
	out := map[string]int{}
	for _, at := range e.attempts {
		if at.worker != "" {
			out[at.worker] += e.remaining(at.a.Index)
		}
	}
	return out
}

// place assigns an attempt to the worker with the lowest estimated
// completion time for its current load plus this shard.
func (e *fleetExecutor) place(at *fleetAttempt, workers map[string]leasesvc.WorkerView) {
	ids := make([]string, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Re-place a starved shard away from the worker that starved it
	// whenever an alternative exists.
	if avoid, ok := e.starved[at.a.Index]; ok && len(ids) > 1 {
		kept := ids[:0]
		for _, id := range ids {
			if id != avoid {
				kept = append(kept, id)
			}
		}
		ids = kept
	}
	loads := e.loads()
	rem := e.remaining(at.a.Index)
	best := ""
	var bestETA time.Duration
	for _, id := range ids {
		eta := etaFor(loads[id]+rem, e.rates.rateOr(id))
		if best == "" || eta < bestETA {
			best, bestETA = id, eta
		}
	}
	if best == "" {
		if !at.waitLogged {
			e.logf("fleet: shard %s: no live workers registered; waiting", at.a)
			at.waitLogged = true
		}
		return
	}
	if err := e.svc.Assign(best, e.placement(at.a)); err != nil {
		e.logf("fleet: shard %s: assigning to worker %s: %v", at.a, best, err)
		return
	}
	at.worker = best
	at.starving = time.Time{}
	e.logf("fleet: shard %s: placed on worker %s (gen %d)", at.a, best, at.gen)
}

// reconcile re-asserts placements a worker lost by re-registering —
// registration wipes assignments (the token changed), so the
// scheduler, as the owner of placement state, writes them back.
func (e *fleetExecutor) reconcile(workers map[string]leasesvc.WorkerView) {
	for _, at := range e.attempts {
		if at.draining || at.worker == "" {
			continue
		}
		w, ok := workers[at.worker]
		if !ok {
			continue
		}
		p := e.placement(at.a)
		found := false
		for _, have := range w.Assignments {
			if have == p {
				found = true
				break
			}
		}
		if !found {
			if err := e.svc.Assign(at.worker, p); err == nil {
				e.logf("fleet: shard %s: re-asserting placement on worker %s", at.a, at.worker)
			}
		}
	}
}

// rebalance moves at most one queued (never-started) shard per poll
// interval (TTL/4) from the worker with the worst estimated completion
// time to the one with the best, when the imbalance is decisive —
// however often lease changes wake the scheduler, the throughput
// estimates get a poll interval to reflect each move. Started shards
// are never moved: their checkpoints live where they run, and a move
// would pay a fencing handover for speculative gain.
func (e *fleetExecutor) rebalance(workers map[string]leasesvc.WorkerView) {
	if len(workers) < 2 || e.now().Sub(e.lastMove) < e.ttl/4 {
		return
	}
	loads := e.loads()
	etas := map[string]time.Duration{}
	for id := range workers {
		etas[id] = etaFor(loads[id], e.rates.rateOr(id))
	}
	queued := map[string][]*fleetAttempt{}
	for _, at := range e.snapshot() {
		if at.worker != "" && !at.sawHeld && !at.draining {
			queued[at.worker] = append(queued[at.worker], at)
		}
	}
	donor, recipient := "", ""
	for id := range workers {
		if len(queued[id]) > 0 && (donor == "" || etas[id] > etas[donor] || (etas[id] == etas[donor] && id < donor)) {
			donor = id
		}
		if recipient == "" || etas[id] < etas[recipient] || (etas[id] == etas[recipient] && id < recipient) {
			recipient = id
		}
	}
	if donor == "" || donor == recipient {
		return
	}
	// Move the queued shard with the most work — the one whose wait
	// hurts most.
	at := queued[donor][0]
	for _, q := range queued[donor] {
		if e.remaining(q.a.Index) > e.remaining(at.a.Index) {
			at = q
		}
	}
	// Judge the move by where the shard would *land*: the recipient's
	// ETA with the moved shard's backlog on board. Comparing against
	// the recipient's empty queue instead makes the move itself flip
	// the asymmetry, and two equal-rate workers ping-pong one queued
	// shard forever.
	after := etaFor(loads[recipient]+e.remaining(at.a.Index), e.rates.rateOr(recipient))
	if etas[donor] <= 2*after || etas[donor]-after <= e.ttl/2 {
		return
	}
	e.svc.Unassign(donor, e.placement(at.a))
	if err := e.svc.Assign(recipient, e.placement(at.a)); err != nil {
		at.worker = ""
		return
	}
	at.worker = recipient
	at.starving = time.Time{}
	e.lastMove = e.now()
	e.logf("fleet: shard %s: rebalance — reassigning queued shard from worker %s (eta %s) to %s (eta %s after move)",
		at.a, donor, etas[donor].Round(time.Millisecond), recipient, after.Round(time.Millisecond))
}

// etaFor converts a job backlog and a jobs/sec rate into a duration.
func etaFor(jobs int, rate float64) time.Duration {
	if jobs <= 0 {
		return 0
	}
	if rate <= 0 {
		rate = 1
	}
	return time.Duration(float64(jobs) / rate * float64(time.Second))
}
