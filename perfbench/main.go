// Command perfbench is the repository's end-to-end benchmark: the time
// from submitting a campaign to rhserved until its artifact has been
// received, under three traffic mixes (see workload.go and NOTES.md).
//
// It starts the rhserved binary given by -rhserved with its shipped
// defaults (only -store and -addr set), drives one workload from a
// single closed-loop client over one HTTP connection — submit, follow
// the SSE stream to the terminal state, fetch the artifact, verify it,
// submit the next — and prints every metric with its unit, the last
// line being one JSON object. With -trace 1 it also replays the head of
// the same spec stream in-process, plain and with every layer boundary
// timed, measures each replayed job's phases in a separate serial pass,
// and reports the per-layer split instead.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload measure-mix --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose artifact digests digests.json commits,
// for the first committedCampaigns campaigns of each spec stream.
const (
	defaultSeed        = 1
	committedCampaigns = 256
)

// setupRuns is how many times a run execs rhserved to time set-up; the
// last instance serves the workload.
const setupRuns = 31

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	bin, workdir string
	seed         uint64
	seconds      int
	trace        bool
	ref          *committed
}

func main() {
	var (
		name     = flag.String("workload", "all", "measure-mix, sharded-mix, paper-experiments, or all")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed; every campaign seed derives from it")
		seconds  = flag.Int("seconds", 15, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced in-process replay")
		bin      = flag.String("rhserved", ".bench_build/bin/rhserved", "rhserved binary under test")
		workdir  = flag.String("workdir", ".bench_build", "directory for stores and replay scratch")
		digests  = flag.String("digests", "perfbench/digests.json", "committed artifact digests of the default seed")
		writeRef = flag.Bool("write-digests", false, "recompute the committed digests through the library path, write -digests and exit")
	)
	flag.Parse()
	ctx := context.Background()

	if *writeRef {
		if err := writeCommitted(ctx, *digests); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	ref, err := loadCommitted(*digests)
	if err != nil {
		fatal(err)
	}
	o := options{bin: *bin, workdir: *workdir, seed: *seed, seconds: *seconds, trace: *trace == 1, ref: ref}

	var run []workload
	if *name == "all" {
		run = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		run = []workload{w}
	}

	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range run {
		res, err := runWorkload(ctx, o, w)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if len(run) == 1 {
			emit(res)
			return
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
		fmt.Println()
	}
	emit(all)
}

// emit prints the metrics one per line, then the result as the last
// line of standard output.
func emit(res result) {
	printMetrics("", res.Metrics)
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// printMetrics prints metrics sorted by name, one per line.
func printMetrics(prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s%-34s %14.6g %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runWorkload is one benchmark run of one workload.
func runWorkload(ctx context.Context, o options, w workload) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return res, err
	}
	scratch, err := os.MkdirTemp(o.workdir, "run-"+w.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(scratch)

	// Set-up: exec → first 200 from /healthz, several times. Every
	// instance must also drain cleanly.
	drainFailures := 0
	var setups []float64
	var d *daemon
	for k := 0; k < setupRuns; k++ {
		inst, took, err := startDaemon(ctx, o.bin, filepath.Join(scratch, fmt.Sprintf("store-%d", k)))
		if err != nil {
			return res, err
		}
		setups = append(setups, took.Seconds())
		if k == setupRuns-1 {
			d = inst
			break
		}
		// rhserved installs its SIGTERM handler just after it starts
		// serving, so a signal sent the instant /healthz answers can
		// still find the default action; give the handler time to land.
		time.Sleep(100 * time.Millisecond)
		if err := inst.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			drainFailures++
		}
	}

	win, err := drive(ctx, d, w, o)
	if err != nil {
		d.kill()
		return res, err
	}
	if err := d.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		drainFailures++
	}

	// Output check: every artifact against its reference digest.
	verifyStart := time.Now()
	failed := drainFailures
	for _, s := range win.samples {
		if s.err == nil {
			want, err := expected(ctx, o.ref, w, o.seed, s.index)
			if err != nil {
				return res, fmt.Errorf("reference for campaign %d: %w", s.index, err)
			}
			if s.digest != want {
				s.err = fmt.Errorf("artifact digest %s, want %s", s.digest, want)
			}
		}
		if s.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s campaign %d: %v\n", w.name, s.index, s.err)
			failed++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: verified %d artifacts in %.1fs\n", w.name, len(win.samples), time.Since(verifyStart).Seconds())
	res.Attempted = len(win.samples)
	res.Failed = failed
	res.Correct = failed == 0

	e2e := win.endToEnd(w)
	e2e["setup_s"] = metric{median(setups), "s"}
	fmt.Printf("%s: %d campaigns (%d timed), error_rate %.4g (%d of %d), campaign_s.tail is p%g with %d of %d timed samples beyond it\n",
		w.name, len(win.samples), win.timed, float64(failed)/float64(len(win.samples)), failed, len(win.samples),
		w.tailPct, win.beyondTail(w), win.timed)
	rates := make([]string, 0, len(win.rotations))
	for _, r := range win.rotations {
		rates = append(rates, fmt.Sprintf("%.3g", float64(r.jobs)/r.wall.Seconds()))
	}
	fmt.Printf("%s: jobs/s of the %d complete rotations: %s\n", w.name, len(win.rotations), strings.Join(rates, " "))
	if !o.trace {
		res.Metrics = e2e
		return res, nil
	}

	layer, ok, err := traced(ctx, o, w, scratch, win)
	if err != nil {
		return res, err
	}
	if !ok {
		res.Correct = false
		res.Failed++
	}
	printMetrics("untraced ", e2e)
	res.Metrics = layer
	return res, nil
}

// traced replays the head of the stream in-process four times — plain,
// traced, traced, plain, so neither kind of pass gets the warmer
// caches — then runs the per-job phase pass, and returns the
// per-layer metrics of the first traced replay and the phase pass.
// ok is false when any replayed artifact differs from the first plain
// replay or from what rhserved served for the same campaign, or when
// the phase pass measures a job differently from the campaign.
func traced(ctx context.Context, o options, w workload, scratch string, win *window) (map[string]metric, bool, error) {
	l := &layers{}
	passes := []*layers{nil, l, {}, nil}
	var out [][]replayed
	var plainWall, tracedWall time.Duration
	for k, pl := range passes {
		got, wall, err := replay(ctx, w, o.seed, filepath.Join(scratch, fmt.Sprintf("replay-%d", k)), pl)
		if err != nil {
			return nil, false, err
		}
		if pl == nil {
			plainWall += wall
		} else {
			tracedWall += wall
		}
		out = append(out, got)
	}

	ok := true
	served := map[int]string{}
	for _, s := range win.samples {
		if s.err == nil {
			served[s.index] = s.digest
		}
	}
	for k := 1; k < len(out); k++ {
		for i, r := range out[k] {
			if want := out[0][i].digest; r.digest != want {
				fmt.Fprintf(os.Stderr, "perfbench: replay %d of campaign %d: digest %s, first plain replay %s\n", k, i, r.digest, want)
				ok = false
			}
		}
	}
	for i, r := range out[0] {
		if d, have := served[i]; have && d != r.digest {
			fmt.Fprintf(os.Stderr, "perfbench: replay of campaign %d: digest %s, rhserved served %s\n", i, r.digest, d)
			ok = false
		}
	}

	bad, err := l.phasePass(ctx, w, o.seed, out[1])
	if err != nil {
		return nil, false, err
	}
	ok = ok && bad == 0

	m := l.metrics(w)
	for k, v := range win.serverLayer() {
		m[k] = v
	}
	m["trace.overhead_frac"] = metric{tracedWall.Seconds()/plainWall.Seconds() - 1, "frac"}
	fmt.Printf("replayed %d campaigns twice each way: plain %.3fs, traced %.3fs\n", w.replay, plainWall.Seconds(), tracedWall.Seconds())
	for _, n := range l.notApplicable(w) {
		fmt.Println("n/a", n)
	}
	return m, ok, nil
}

// window is the closed-loop client's record of one run.
type window struct {
	samples []*sample
	timed   int // samples inside the timed window
	// rotations are the complete passes over the workload's kind
	// rotation inside the timed window, each a balanced unit of the mix.
	rotations []rotation
	peakRSS   int64
}

// rotation is one complete pass over the kind rotation.
type rotation struct {
	wall time.Duration
	cpu  time.Duration // rhserved CPU
	jobs int           // jobs of its successful campaigns
}

// drive runs the warm-up campaigns, then the timed window: campaigns
// are submitted back to back until the window's length has passed and
// at least one rotation is complete, and the last one is allowed to
// finish. rhserved's CPU time is read from /proc between rotations.
func drive(ctx context.Context, d *daemon, w workload, o options) (*window, error) {
	c := newClient(d.base)
	defer c.close()
	win := &window{}
	pid := d.cmd.Process.Pid
	i := 0
	for ; i < w.warmup; i++ {
		win.samples = append(win.samples, c.run(i, w.spec(o.seed, i)))
	}
	mark, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	rotStart := time.Now()
	deadline := rotStart.Add(time.Duration(o.seconds) * time.Second)
	rot := rotation{}
	for ; time.Now().Before(deadline) || len(win.rotations) == 0; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := c.run(i, w.spec(o.seed, i))
		win.samples = append(win.samples, s)
		win.timed++
		if s.err == nil {
			rot.jobs += s.jobs
		}
		if win.timed%len(w.kinds) != 0 {
			continue
		}
		rot.wall = time.Since(rotStart)
		u, err := readProc(pid)
		if err != nil {
			return nil, err
		}
		rot.cpu = u.cpu - mark.cpu
		win.rotations = append(win.rotations, rot)
		mark, rot, rotStart = u, rotation{}, time.Now()
	}
	u, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	win.peakRSS = u.peakRSS
	return win, nil
}

// ok lists the successful samples of the timed window.
func (win *window) ok() []*sample {
	var out []*sample
	for _, s := range win.samples[len(win.samples)-win.timed:] {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// endToEnd reports the end-to-end metrics: latency percentiles over
// every timed campaign, throughput and CPU per job as medians over the
// complete rotations.
func (win *window) endToEnd(w workload) map[string]metric {
	var lat, rate, cpu []float64
	for _, s := range win.ok() {
		lat = append(lat, s.latency().Seconds())
	}
	for _, r := range win.rotations {
		rate = append(rate, float64(r.jobs)/r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds()/float64(max(r.jobs, 1)))
	}
	return map[string]metric{
		"jobs_per_s":      {median(rate), "1/s"},
		"campaign_s.p50":  {percentile(lat, 50), "s"},
		"campaign_s.tail": {percentile(lat, w.tailPct), "s"},
		"cpu_s_per_job":   {median(cpu), "s"},
		"peak_rss_mib":    {float64(win.peakRSS) / (1 << 20), "MiB"},
	}
}

// beyondTail counts timed samples slower than the tail percentile.
func (win *window) beyondTail(w workload) int {
	var lat []float64
	for _, s := range win.ok() {
		lat = append(lat, s.latency().Seconds())
	}
	cut := percentile(lat, w.tailPct)
	n := 0
	for _, v := range lat {
		if v > cut {
			n++
		}
	}
	return n
}

// serverLayer splits the client-observed latency at the SSE
// timestamps.
func (win *window) serverLayer() map[string]metric {
	var submit, queue, run, fetch []float64
	events := 0
	ok := win.ok()
	for _, s := range ok {
		submit = append(submit, s.ack.Sub(s.start).Seconds())
		queue = append(queue, s.running.Sub(s.ack).Seconds())
		run = append(run, s.done.Sub(s.running).Seconds())
		fetch = append(fetch, s.end.Sub(s.fetch).Seconds())
		events += s.events
	}
	return map[string]metric{
		"server.submit_s.p50":        {percentile(submit, 50), "s"},
		"server.queue_s.p50":         {percentile(queue, 50), "s"},
		"server.run_s.p50":           {percentile(run, 50), "s"},
		"server.fetch_s.p50":         {percentile(fetch, 50), "s"},
		"server.events_per_campaign": {float64(events) / float64(max(len(ok), 1)), "count"},
	}
}
