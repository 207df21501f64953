package rowhammer

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func tinyFleetSpec(kind string, modulesPerMfr int) CampaignSpec {
	return CampaignSpec{
		Kind:          kind,
		Mfrs:          []string{"A", "B", "C", "D"},
		ModulesPerMfr: modulesPerMfr,
		Seed:          0x5eed,
		Scale:         Scale{RowsPerRegion: 8, Regions: 1, Hammers: 150_000, MaxHammers: 512_000, Repetitions: 1, ModulesPerMfr: modulesPerMfr},
		Geometry:      Geometry{Banks: 1, RowsPerBank: 256, SubarrayRows: 64, Chips: 4, ChipWidth: 8, ColumnsPerRow: 16},
		Workers:       4,
	}
}

func TestRunCampaignAllKinds(t *testing.T) {
	for _, kind := range CampaignKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			spec := tinyFleetSpec(kind, 1)
			res, err := RunCampaign(context.Background(), spec, CampaignOptions{})
			if err != nil {
				t.Fatalf("RunCampaign(%s): %v", kind, err)
			}
			if res.Completed != 4 || res.Failed != 0 {
				t.Fatalf("completed/failed = %d/%d, want 4/0", res.Completed, res.Failed)
			}
			for key, rec := range res.Records {
				if len(rec.Metrics) == 0 {
					t.Fatalf("record %s has no metrics", key)
				}
				if rec.Seed == 0 {
					t.Fatalf("record %s missing module seed", key)
				}
			}
			if len(res.Summary.Fleet) == 0 {
				t.Fatalf("summary has no fleet metrics")
			}
		})
	}
}

// TestCampaignRejectsUnknownKind: the root lowering owns the list of
// measurement kinds — CampaignEngine and RunCampaign refuse a kind
// without a measurement core, experiment kinds included, before any
// job runs; an empty kind still selects hcfirst.
func TestCampaignRejectsUnknownKind(t *testing.T) {
	for _, kind := range []string{"bogus", "exp:fig5"} {
		spec := tinyFleetSpec(kind, 1)
		if _, _, err := CampaignEngine(spec); err == nil || !strings.Contains(err.Error(), strconv.Quote(kind)) {
			t.Errorf("CampaignEngine(%q): want an unknown-kind error, got %v", kind, err)
		}
		var ran atomic.Int32
		res, err := RunCampaign(context.Background(), spec, CampaignOptions{
			Progress: func(int, int, CampaignRecord) { ran.Add(1) },
		})
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(kind)) {
			t.Errorf("RunCampaign(%q): want an unknown-kind error, got %v", kind, err)
		}
		if res != nil || ran.Load() != 0 {
			t.Errorf("RunCampaign(%q) ran %d job(s)", kind, ran.Load())
		}
	}
	cs, _, err := CampaignEngine(tinyFleetSpec("", 1))
	if err != nil || cs.Kind != CampaignHCFirst {
		t.Fatalf("empty kind: engine kind %q, err %v; want %q", cs.Kind, err, CampaignHCFirst)
	}
}

func TestRunCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []byte {
		spec := tinyFleetSpec(CampaignHCFirst, 2)
		spec.Workers = workers
		res, err := RunCampaign(context.Background(), spec, CampaignOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Summary.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Fatal("fleet summary depends on worker count")
	}
}

// TestRunCampaignInterruptResumeBitIdentical is the acceptance check:
// a 16-module campaign killed mid-run and resumed from its v2
// checkpoint file must aggregate bit-identically to an uninterrupted
// run.
func TestRunCampaignInterruptResumeBitIdentical(t *testing.T) {
	spec := tinyFleetSpec(CampaignHCFirst, 4) // 4 mfrs x 4 = 16 modules

	ref, err := RunCampaign(context.Background(), spec, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refSum, err := ref.Summary.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cpPath := filepath.Join(t.TempDir(), "fleet.jsonl")
	cw, err := CreateCampaignCheckpoint(cpPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	var done atomic.Int64
	res, err := RunCampaign(ctx, spec, CampaignOptions{
		Records: cw,
		Progress: func(_, _ int, rec CampaignRecord) {
			if rec.Err == "" && done.Add(1) >= 5 {
				once.Do(cancel)
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign should surface cancellation, got %v", err)
	}
	if res == nil || res.Completed >= 16 {
		t.Fatalf("campaign was not interrupted: %+v", res)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume from the file the way rhfleet -resume X -out X does: one
	// read verifies the identity and yields the records to adopt, and
	// the same file keeps receiving the rest.
	cw, rep, err := OpenCampaignCheckpoint(cpPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 2 || rep.CorruptRecords != 0 || len(rep.Records) < 5 {
		t.Fatalf("resume report = %+v, want a clean v2 checkpoint with >= 5 records", rep)
	}
	resumed, err := RunCampaign(context.Background(), spec, CampaignOptions{Resume: rep.Records, Records: cw})
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint now holds the whole campaign on its own.
	final, err := LoadCampaignCheckpointReport(cpPath, &spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Records) != 16 || final.CorruptRecords != 0 {
		t.Fatalf("final checkpoint: %d records, %d corrupt; want 16, 0", len(final.Records), final.CorruptRecords)
	}
	if resumed.Skipped == 0 {
		t.Fatal("resume skipped no jobs")
	}
	if resumed.Skipped+resumed.Completed != 16 {
		t.Fatalf("skipped %d + completed %d != 16", resumed.Skipped, resumed.Completed)
	}
	gotSum, err := resumed.Summary.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refSum, gotSum) {
		t.Fatalf("resumed summary differs from uninterrupted run:\nref: %s\ngot: %s", refSum, gotSum)
	}
}

func TestModuleSeedKeyedAndStable(t *testing.T) {
	a0 := ModuleSeed(42, "A", 0)
	if a0 != ModuleSeed(42, "A", 0) {
		t.Fatal("ModuleSeed not deterministic")
	}
	seen := map[uint64]string{}
	for _, mfr := range []string{"A", "B", "C", "D"} {
		for i := 0; i < 8; i++ {
			s := ModuleSeed(42, mfr, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s/%d and %s", mfr, i, prev)
			}
			seen[s] = mfr
		}
	}
	if ModuleSeed(42, "A", 0) == ModuleSeed(43, "A", 0) {
		t.Fatal("master seed not mixed into module seed")
	}
}

func TestSurveyPatternsBestOutflipsWorst(t *testing.T) {
	b, err := NewBench(BenchConfig{Profile: ProfileByName("A"), Seed: 7, Geometry: Geometry{Banks: 1, RowsPerBank: 256, SubarrayRows: 64, Chips: 4, ChipWidth: 8, ColumnsPerRow: 16}})
	if err != nil {
		t.Fatal(err)
	}
	tester := NewTester(b)
	victims := []int{10, 40, 90, 140}
	s, err := tester.SurveyPatterns(context.Background(), 0, victims, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.BestFlips < s.WorstFlips {
		t.Fatalf("best flips %d < worst flips %d", s.BestFlips, s.WorstFlips)
	}
	if len(s.Totals) == 0 {
		t.Fatal("survey has no per-pattern totals")
	}
}

func TestSurveyPatternsHonorsCancellation(t *testing.T) {
	b, err := NewBench(BenchConfig{Profile: ProfileByName("A"), Seed: 7, Geometry: Geometry{Banks: 1, RowsPerBank: 256, SubarrayRows: 64, Chips: 4, ChipWidth: 8, ColumnsPerRow: 16}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewTester(b).SurveyPatterns(ctx, 0, []int{10, 40}, 200_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
