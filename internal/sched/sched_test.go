package sched

import (
	"testing"

	"rowhammer/internal/dram"
)

func streamingWorkload(seed uint64) []Request {
	return Generate(WorkloadConfig{
		Requests: 5000, Banks: 4, Rows: 1024, Cols: 64,
		Locality: 0.9, InterArrival: dram.PicosFromNs(30), Seed: seed,
	})
}

func randomWorkload(seed uint64) []Request {
	return Generate(WorkloadConfig{
		Requests: 5000, Banks: 4, Rows: 1024, Cols: 64,
		Locality: 0.05, InterArrival: dram.PicosFromNs(30), Seed: seed,
	})
}

func TestGenerateDeterministicAndBounded(t *testing.T) {
	a := streamingWorkload(1)
	b := streamingWorkload(1)
	if len(a) != 5000 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic")
		}
		if a[i].Bank < 0 || a[i].Bank >= 4 || a[i].Row < 0 || a[i].Row >= 1024 || a[i].Col < 0 || a[i].Col >= 64 {
			t.Fatalf("request out of bounds: %+v", a[i])
		}
		if i > 0 && a[i].Arrival < a[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
	}
}

func TestOpenPageBeatsClosedPageOnStreaming(t *testing.T) {
	tm := dram.DDR4Timing()
	reqs := streamingWorkload(2)
	open, err := Simulate(reqs, tm, OpenPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := Simulate(reqs, tm, ClosedPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hitRate := float64(open.RowHits) / float64(open.Requests); hitRate < 0.7 {
		t.Fatalf("streaming hit rate %.2f under open-page", hitRate)
	}
	if closed.RowHits != 0 {
		t.Fatalf("closed-page row hits = %d", closed.RowHits)
	}
	if open.AvgLatencyNs() >= closed.AvgLatencyNs() {
		t.Fatalf("open-page latency %.1f >= closed-page %.1f on a streaming workload",
			open.AvgLatencyNs(), closed.AvgLatencyNs())
	}
	if closed.Acts <= open.Acts {
		t.Fatalf("closed-page should activate more: %d vs %d", closed.Acts, open.Acts)
	}
}

func TestCappedPolicyBoundsOpenTime(t *testing.T) {
	tm := dram.DDR4Timing()
	cap := dram.PicosFromNs(200)
	reqs := streamingWorkload(3)
	open, err := Simulate(reqs, tm, OpenPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Simulate(reqs, tm, CappedOpenPage, cap)
	if err != nil {
		t.Fatal(err)
	}
	if open.MaxRowOpen <= cap {
		t.Skip("workload never exceeds the cap; nothing to bound")
	}
	// Security property: no row stays open beyond the cap (plus the
	// tRAS minimum the DRAM itself requires).
	limit := cap
	if tm.TRAS > limit {
		limit = tm.TRAS
	}
	if capped.MaxRowOpen > limit {
		t.Fatalf("capped policy allowed %v ps open, cap %v", capped.MaxRowOpen, limit)
	}
	// Cost: some latency increase, but far less than closed-page.
	closed, err := Simulate(reqs, tm, ClosedPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	if capped.AvgLatencyNs() > closed.AvgLatencyNs() {
		t.Fatalf("capped latency %.1f worse than closed-page %.1f",
			capped.AvgLatencyNs(), closed.AvgLatencyNs())
	}
}

func TestRandomWorkloadInsensitiveToPolicy(t *testing.T) {
	tm := dram.DDR4Timing()
	reqs := randomWorkload(4)
	open, err := Simulate(reqs, tm, OpenPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Simulate(reqs, tm, CappedOpenPage, dram.PicosFromNs(200))
	if err != nil {
		t.Fatal(err)
	}
	// With ~5% locality the cap costs almost nothing.
	if capped.AvgLatencyNs() > open.AvgLatencyNs()*1.1 {
		t.Fatalf("cap cost %.1f→%.1f ns on a random workload",
			open.AvgLatencyNs(), capped.AvgLatencyNs())
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(nil, dram.DDR4Timing(), CappedOpenPage, 0); err == nil {
		t.Fatal("expected error for capped policy without cap")
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		OpenPage: "open-page", ClosedPage: "closed-page", CappedOpenPage: "capped-open-page",
	} {
		if p.String() != want {
			t.Fatalf("%d → %q", p, p.String())
		}
	}
}
