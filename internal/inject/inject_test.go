package inject

import (
	"testing"
	"time"
)

func TestParseProfiles(t *testing.T) {
	for _, s := range []string{"", "none"} {
		p, err := Parse(s)
		if err != nil || p != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", s, p, err)
		}
	}
	p, err := Parse("chaos+dead=A/0,C/2+seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.CmdErrRate == 0 || len(p.DeadModules) != 2 || p.DeadModules[0] != "A/0" {
		t.Fatalf("merged profile = %+v", p)
	}
	if !p.Active() {
		t.Fatal("merged profile should be active")
	}
	for _, bad := range []string{"bogus", "dead=", "seed=x", "seed=7"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestTransientFaultDecisionsAreDeterministicAndBounded(t *testing.T) {
	p := Transient(5)
	a := p.hitAttempt(p.CmdErrRate, chCmd, "hcfirst/A/0", 1)
	for i := 0; i < 10; i++ {
		if p.hitAttempt(p.CmdErrRate, chCmd, "hcfirst/A/0", 1) != a {
			t.Fatal("fault decision not deterministic")
		}
	}
	// Attempts beyond MaxFaultAttempts always run clean — the
	// convergence guarantee behind the bit-identical invariant.
	for attempt := p.maxFaultAttempts() + 1; attempt < p.maxFaultAttempts()+10; attempt++ {
		if p.hitAttempt(1.0, chCmd, "hcfirst/A/0", attempt) {
			t.Fatalf("attempt %d past MaxFaultAttempts still faulted", attempt)
		}
	}
}

func TestLatencyProfileSleepBounded(t *testing.T) {
	p := Latency(3, 50*time.Millisecond)
	if !p.Active() {
		t.Fatal("latency profile should be active")
	}
	if p.LatencySpike != 50*time.Millisecond {
		t.Fatalf("spike = %v", p.LatencySpike)
	}
}
