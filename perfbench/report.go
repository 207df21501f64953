package main

import (
	"sort"
	"time"
)

// percentile is the linearly interpolated p-th percentile of xs (0 for
// no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// per divides a total by a count, 0 when there is nothing to divide.
func per(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return total.Seconds() / float64(n)
}

// metrics is the per-layer report of a traced replay and its phase
// pass. Times are means per campaign, job, shard attempt or append as
// named, except the faultmodel times, which like every count are
// totals over the replayed campaigns; counts repeat exactly for a seed.
func (l *layers) metrics(w workload) map[string]metric {
	var busy time.Duration
	jobs := make([]float64, 0, len(l.jobs))
	for _, d := range l.jobs {
		busy += d
		jobs = append(jobs, d.Seconds())
	}
	idle := 0.0
	if l.slots > 0 {
		idle = 1 - busy.Seconds()/l.slots.Seconds()
	}
	m := map[string]metric{
		"campaign.run_s":            {per(l.engine, l.campaigns), "s"},
		"campaign.job_s.p50":        {median(jobs), "s"},
		"campaign.job_busy_s":       {per(busy, l.campaigns), "s"},
		"campaign.worker_idle_frac": {idle, "frac"},
		"campaign.ckpt_append_s":    {per(l.appendTime, l.appends), "s"},
		"campaign.ckpt_appends":     {float64(l.appends), "count"},
		"campaign.retries":          {float64(l.retries), "count"},

		"rowhammer.setup_s":   {per(l.setup, l.phaseJobs), "s"},
		"rowhammer.survey_s":  {per(l.survey, l.phaseJobs), "s"},
		"rowhammer.measure_s": {per(l.measure, l.phaseJobs), "s"},

		"faultmodel.disturb_calls":     {float64(l.disturbCalls), "count"},
		"faultmodel.disturb_s":         {l.disturbTime.Seconds(), "s"},
		"faultmodel.first_touch_calls": {float64(l.firstCalls), "count"},
		"faultmodel.first_touch_s":     {l.firstTime.Seconds(), "s"},
		"faultmodel.first_touch_frac":  {0, "frac"},

		"dram.acts":           {float64(l.acts), "count"},
		"dram.flips_injected": {float64(l.flips), "count"},
		"dram.acts_per_cpu_s": {0, "1/s"},

		"shard.coordinate_s": {per(l.coordinate, l.shardedCampaigns), "s"},
		"shard.run_s":        {per(l.shardRun, l.shardAttempts), "s"},
		"shard.startup_s":    {per(l.startup, l.shardAttempts), "s"},
		"shard.merge_s":      {per(l.merge, l.shardedCampaigns), "s"},
		"shard.respawns":     {float64(l.respawns), "count"},

		"exp.merge_s": {per(l.mergeTime, l.campaigns), "s"},
		"store.put_s": {per(l.putTime, l.campaigns), "s"},
		"store.bytes": {float64(l.artifactBytes) / float64(max(l.campaigns, 1)), "bytes"},
	}
	if l.disturbCalls > 0 {
		m["faultmodel.first_touch_frac"] = metric{float64(l.firstCalls) / float64(l.disturbCalls), "frac"}
	}
	if l.coreCPU > 0 {
		m["dram.acts_per_cpu_s"] = metric{float64(l.acts) / l.coreCPU.Seconds(), "1/s"}
	}
	// A paper experiment's job is one opaque Compute call: all of it is
	// measurement.
	if !w.measurement {
		m["rowhammer.measure_s"] = metric{per(busy, len(jobs)), "s"}
	}
	return m
}

// notApplicable names the per-layer metrics reported as 0 on this
// workload, each with the reason.
func (l *layers) notApplicable(w workload) []string {
	var out []string
	if w.shards <= 1 {
		out = append(out, "shard.*: unsharded campaigns never enter the shard layer")
	}
	if !w.measurement {
		out = append(out,
			"rowhammer.setup_s, rowhammer.survey_s: an experiment job is one exp Compute call; rowhammer.measure_s is its mean",
			"faultmodel.*, dram.*: experiments build their benches inside internal/exp, where no Disturber seam reaches")
	}
	return out
}
