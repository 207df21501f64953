package campaign

import (
	"encoding/json"
	"sort"

	"rowhammer/internal/stats"
)

// MetricSummary pairs a metric name with its population statistics.
type MetricSummary struct {
	Metric string        `json:"metric"`
	Stats  stats.Summary `json:"stats"`
}

// MfrSummary aggregates every successful module record of one
// manufacturer.
type MfrSummary struct {
	Mfr     string          `json:"mfr"`
	Modules int             `json:"modules"`
	Metrics []MetricSummary `json:"metrics,omitempty"`
}

// Coverage is the explicit accounting a degraded fleet reports: when
// any job failed or was quarantined, the summary says exactly which
// coverage was lost instead of silently shrinking the population.
// Failed counts every failed job (quarantined included); Quarantined
// is the subset whose module tripped the circuit breaker.
type Coverage struct {
	Jobs               int           `json:"jobs"`
	Completed          int           `json:"completed"`
	Retried            int           `json:"retried"`
	Failed             int           `json:"failed"`
	Quarantined        int           `json:"quarantined"`
	QuarantinedModules []string      `json:"quarantined_modules,omitempty"`
	FailedJobs         []string      `json:"failed_jobs,omitempty"`
	Attempts           stats.Summary `json:"attempts"`
}

// Summary is the fleet-level aggregate of a campaign. It is computed
// from the record *set* (sorted by job key, metric values sorted by
// the summarizer), so it is invariant under completion order — the
// property that makes interrupted+resumed campaigns bit-identical to
// uninterrupted ones.
//
// Coverage is present only when coverage was actually lost (a job
// failed, a module was quarantined, or jobs are missing). A campaign
// that survives transient faults through retries therefore emits a
// summary bit-identical to a fault-free run's.
type Summary struct {
	Kind     string          `json:"kind"`
	Seed     uint64          `json:"seed"`
	Jobs     int             `json:"jobs"`
	Done     int             `json:"done"`
	Failed   int             `json:"failed"`
	Coverage *Coverage       `json:"coverage,omitempty"`
	Mfrs     []MfrSummary    `json:"per_mfr,omitempty"`
	Fleet    []MetricSummary `json:"fleet,omitempty"`
	Pattern  map[string]int  `json:"patterns,omitempty"`
}

// Aggregate merges the result's records into a fleet summary. Failed
// records contribute to the Failed count only; their metrics are
// excluded.
func Aggregate(res *Result) Summary {
	sum := Summary{
		Kind: res.Spec.Kind,
		Seed: res.Spec.Seed,
		Jobs: len(Expand(res.Spec)),
	}
	// Canonical record order: sorted job keys.
	perMfr := make(map[string]map[string][]float64) // mfr -> metric -> values
	fleet := make(map[string][]float64)
	modules := make(map[string]int)
	patterns := make(map[string]int)
	quarantined := make(map[string]bool)
	var failedJobs []string
	var attempts []int
	var retried int
	for _, key := range sortedKeys(res.Records) {
		rec := res.Records[key]
		if rec.Attempts > 0 {
			attempts = append(attempts, rec.Attempts)
		}
		if rec.Attempts > 1 {
			retried++
		}
		if rec.Failed() {
			sum.Failed++
			if rec.Quarantined {
				quarantined[rec.ModuleID()] = true
			} else {
				failedJobs = append(failedJobs, rec.Key)
			}
			continue
		}
		sum.Done++
		modules[rec.Mfr]++
		if rec.Pattern != "" {
			patterns[rec.Pattern]++
		}
		if perMfr[rec.Mfr] == nil {
			perMfr[rec.Mfr] = make(map[string][]float64)
		}
		for _, m := range sortedNames(rec.Metrics) {
			v := rec.Metrics[m]
			perMfr[rec.Mfr][m] = append(perMfr[rec.Mfr][m], v)
			fleet[m] = append(fleet[m], v)
		}
	}
	for _, mfr := range res.Spec.Mfrs {
		byMetric, ok := perMfr[mfr]
		if !ok {
			continue
		}
		ms := MfrSummary{Mfr: mfr, Modules: modules[mfr]}
		for _, m := range sortedNames(byMetric) {
			ms.Metrics = append(ms.Metrics, MetricSummary{Metric: m, Stats: stats.Summarize(byMetric[m])})
		}
		sum.Mfrs = append(sum.Mfrs, ms)
	}
	for _, m := range sortedNames(fleet) {
		sum.Fleet = append(sum.Fleet, MetricSummary{Metric: m, Stats: stats.Summarize(fleet[m])})
	}
	if len(patterns) > 0 {
		sum.Pattern = patterns
	}
	// Coverage accounting appears exactly when coverage was lost, so a
	// fully-recovered (transient-fault) run stays bit-identical to a
	// fault-free one while a degraded fleet names what is missing.
	if sum.Failed > 0 || sum.Done < sum.Jobs {
		sum.Coverage = &Coverage{
			Jobs:               sum.Jobs,
			Completed:          sum.Done,
			Retried:            retried,
			Failed:             sum.Failed,
			Quarantined:        len(quarantined),
			QuarantinedModules: sortedNames(quarantined),
			FailedJobs:         failedJobs,
			Attempts:           stats.SummarizeInts(attempts),
		}
	}
	return sum
}

// MarshalIndent renders the summary as deterministic, human-diffable
// JSON: struct field order is fixed and all maps serialize with sorted
// keys, so two summaries are bit-identical iff their contents are.
func (s Summary) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// sortedNames returns a string-keyed map's keys in canonical order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
