package exp

import "testing"

func TestDDR3Observation2(t *testing.T) {
	a := tinyArtifact(t, "ddr3")
	if len(a.Shards) != 3 {
		t.Fatalf("mfrs = %v", a.Shards)
	}
	for _, mfr := range a.Shards {
		key := mfrKey(mfr)
		if val(t, a, key, "vulnerable") == 0 {
			t.Fatalf("mfr %s DDR3: no vulnerable cells", mfr)
		}
		if val(t, a, key, "full_range_frac") <= 0 {
			t.Errorf("mfr %s DDR3: no full-range cells (Obsv. 2 should hold on DDR3)", mfr)
		}
		if f := val(t, a, key, "no_gap_frac"); f < 0.9 {
			t.Errorf("mfr %s DDR3: no-gap fraction %.2f", mfr, f)
		}
	}
}

func TestManySidedDefeatsTRR(t *testing.T) {
	res, err := ManySided(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.DoubleFlips != 0 {
		t.Errorf("TRR failed to stop the double-sided attack: %d flips", res.DoubleFlips)
	}
	if res.TRRRefreshesDouble == 0 {
		t.Error("TRR never fired against the double-sided attack")
	}
	if res.ManyFlips == 0 {
		t.Error("many-sided attack should defeat the 4-entry TRR sampler")
	}
}

func TestInterferenceChecklist(t *testing.T) {
	res, err := Interference(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ms := float64(res.HCfirstDuration) / 1e9; ms >= 64 {
		t.Errorf("hammer test %f ms exceeds the 64 ms methodology budget", ms)
	}
	if res.RetentionFlips != 0 {
		t.Errorf("retention interfered: %d flips", res.RetentionFlips)
	}
	if res.TRRActivity != 0 {
		t.Errorf("TRR fired without REF: %d", res.TRRActivity)
	}
	if res.ECCVisibleFlips >= res.ECCRawFlips {
		t.Errorf("on-die ECC should mask flips: %d raw vs %d visible", res.ECCRawFlips, res.ECCVisibleFlips)
	}
}

func TestDefCompareScorecard(t *testing.T) {
	res, err := DefCompare(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 mechanisms, got %d", len(res.Rows))
	}
	byName := map[string]DefCompareRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		if r.AttackFlips != 0 {
			t.Errorf("%s: attack succeeded with %d flips", r.Name, r.AttackFlips)
		}
	}
	// PARA pays benign bandwidth; deterministic trackers don't.
	if byName["PARA"].BenignRefreshRate <= byName["Graphene"].BenignRefreshRate {
		t.Error("PARA should out-refresh Graphene on benign traffic")
	}
	if byName["Graphene"].BenignRefreshRate != 0 || byName["TWiCe"].BenignRefreshRate != 0 {
		t.Error("deterministic trackers refreshed benign traffic")
	}
	// BlockHammer defends by throttling, not refreshing.
	if byName["BlockHammer"].ThrottleMs <= 0 {
		t.Error("BlockHammer never throttled the attack")
	}
	if byName["BlockHammer"].AttackRefreshes != 0 {
		t.Error("BlockHammer should not refresh")
	}
	// RFM+SilverBullet refreshes via the on-die path.
	if byName["RFM+SilverBullet"].AttackRefreshes == 0 {
		t.Error("RFM+SilverBullet never refreshed under attack")
	}
}

func TestWCDPSurvey(t *testing.T) {
	a := tinyArtifact(t, "wcdp")
	for _, mfr := range a.Shards {
		if len(series(t, a, mfrKey(mfr)+"/patterns")) == 0 {
			t.Fatalf("mfr %s: no modules surveyed", mfr)
		}
		// Pattern choice must matter: the WCDP flips strictly more
		// than the weakest pattern (the coupling mechanism).
		if g := val(t, a, mfrKey(mfr), "gain"); g <= 1 {
			t.Errorf("mfr %s: WCDP gain %.2f, want > 1", mfr, g)
		}
	}
}
