package rowhammer

import (
	"reflect"
	"slices"
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/softmc"
)

// disturbOnly hides every method of a Disturber but Disturb — in
// particular dram.FlipProber's DisturbAny — so the module it is given
// to senses every compare-read in full.
type disturbOnly struct{ dram.Disturber }

// withDisturber rebuilds b's module, lazily allocated and untouched so
// far, around dist (wrapping b.Model) with b's own settings, and gives
// b a new executor for it.
func withDisturber(t *testing.T, b *Bench, dist dram.Disturber) *Bench {
	t.Helper()
	old := b.Module
	mod, err := dram.NewModule(dram.ModuleConfig{
		Geometry:     b.cfg.Geometry,
		Timing:       b.cfg.Timing,
		Remap:        old.Remap(),
		Disturber:    dist,
		TRR:          b.cfg.TRR,
		OnDieECC:     b.cfg.OnDieECC,
		Retention:    b.cfg.Retention,
		Seed:         b.cfg.Seed,
		InitialTempC: old.Temperature(),
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Module, b.Exec = mod, softmc.NewExecutor(mod)
	return b
}

// compareReadBenches are the bench options the compare-read state test
// covers: none, TRR, on-die ECC (every compare-read falls back to a full
// sense) and a retention model weak enough to decay victims during a
// search (those compare-reads fall back too), at 80 °C.
var compareReadBenches = []struct {
	name string
	cfg  func(*BenchConfig)
}{
	{"plain", func(*BenchConfig) {}},
	{"trr", func(c *BenchConfig) { trr := dram.DefaultTRRConfig(); c.TRR = &trr }},
	{"ecc", func(c *BenchConfig) { c.OnDieECC = true }},
	{"retention", func(c *BenchConfig) {
		c.Retention = &dram.RetentionConfig{MedianSeconds: 64, Sigma: 1, WeakFrac: 2e-3, WeakMedianSeconds: 0.05, TempCoeffPerC: 0.069}
	}},
}

// compareReadPair builds two identical benches for one option set: the
// first as NewBench builds it (its fault model answers existence
// queries), the second with the model behind disturbOnly (every probe
// reads in full).
func compareReadPair(t *testing.T, prof string, set func(*BenchConfig)) (fast, ref *Tester) {
	t.Helper()
	build := func() *Bench {
		cfg := BenchConfig{Profile: ProfileByName(prof), Seed: 29, Geometry: smallGeometry()}
		set(&cfg)
		b, err := NewBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SetTemperature(80); err != nil {
			t.Fatal(err)
		}
		return b
	}
	fb := build()
	rb := build()
	return NewTester(fb), NewTester(withDisturber(t, rb, disturbOnly{rb.Model}))
}

// moduleState is what the state test compares after a search: stored
// rows and ledgers over V±10, the stats but FlipsInjected, and the
// executor's time.
type moduleState struct {
	Rows    [][]uint64
	Ledgers []dram.RowLedger
	Stats   dram.Stats
	Now     dram.Picos
}

func stateAround(b *Bench, bank, victim int) moduleState {
	s := moduleState{Stats: b.Module.Stats(), Now: b.Exec.Now()}
	s.Stats.FlipsInjected = 0
	for phys := victim - 10; phys <= victim+10; phys++ {
		s.Rows = append(s.Rows, b.Module.PeekRow(bank, phys))
		s.Ledgers = append(s.Ledgers, b.Module.PeekLedger(bank, phys))
	}
	return s
}

// TestHCFirstCompareReadStateIdentity: HCFirst's compare-read probes
// change nothing a caller can observe. After HCFirst and HCFirstMin
// searches on successive victims, a bench whose fault model answers
// existence queries holds exactly the state of a bench whose probes
// all read in full — rows and ledgers over V±10, stats other than
// FlipsInjected, executor time — and reports the same results and the
// same ReadFlips, on plain, TRR, on-die-ECC and retention benches.
func TestHCFirstCompareReadStateIdentity(t *testing.T) {
	for _, bc := range compareReadBenches {
		for _, prof := range []string{"A", "C"} {
			fast, ref := compareReadPair(t, prof, bc.cfg)
			for i, victim := range []int{100, 101, 180} {
				cfg := HCFirstConfig{Bank: 0, VictimPhys: victim, Pattern: PatCheckered, MaxHammers: 512_000}
				var got, want HCFirstResult
				var errF, errR error
				if i == 1 {
					got, errF = fast.HCFirstMin(cfg, 3)
					want, errR = ref.HCFirstMin(cfg, 3)
				} else {
					cfg.Trial = uint64(i)
					got, errF = fast.HCFirst(cfg)
					want, errR = ref.HCFirst(cfg)
				}
				if errF != nil || errR != nil {
					t.Fatal(errF, errR)
				}
				if got != want {
					t.Fatalf("%s %s victim %d: HCFirst %+v, full-read bench %+v", bc.name, prof, victim, got, want)
				}
				if !got.Found {
					t.Fatalf("%s %s victim %d: no HCfirst found; test vacuous", bc.name, prof, victim)
				}
				if g, w := stateAround(fast.b, 0, victim), stateAround(ref.b, 0, victim); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s %s victim %d: module state after the search differs:\ncompare-read %+v\nfull reads   %+v", bc.name, prof, victim, g.Stats, w.Stats)
				}
				fr, err := fast.ReadFlips(0, victim, victim, PatCheckered)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := ref.ReadFlips(0, victim, victim, PatCheckered)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(fr.Bits, rr.Bits) {
					t.Fatalf("%s %s victim %d: ReadFlips after the search %v, full-read bench %v", bc.name, prof, victim, fr.Bits, rr.Bits)
				}
			}
			fs, rs := fast.b.Module.Stats(), ref.b.Module.Stats()
			switch bc.name {
			case "ecc":
				if fs.FlipsInjected != rs.FlipsInjected {
					t.Fatalf("ecc %s: FlipsInjected %d, full reads %d; every ECC compare-read must sense in full", prof, fs.FlipsInjected, rs.FlipsInjected)
				}
			case "retention":
				if rs.RetentionFlips == 0 {
					t.Fatalf("retention %s: no retention flips; the fallback is unexercised", prof)
				}
			default:
				if fs.FlipsInjected >= rs.FlipsInjected {
					t.Fatalf("%s %s: FlipsInjected %d, full reads %d; no compare-read skipped its flips", bc.name, prof, fs.FlipsInjected, rs.FlipsInjected)
				}
			}
		}
	}
}

// TestHCFirstExistenceProbesBuildFewerCells pins what the existence
// probes buy: HCfirst searches on fresh rows materialize at least 3×
// fewer candidate cells in the fault model's kernel than the same
// searches reading every probe in full.
func TestHCFirstExistenceProbesBuildFewerCells(t *testing.T) {
	for _, prof := range []string{"A", "B", "C", "D"} {
		fast, ref := compareReadPair(t, prof, func(*BenchConfig) {})
		for _, victim := range []int{30, 90, 150, 210, 300, 400} {
			cfg := HCFirstConfig{Bank: 0, VictimPhys: victim, Pattern: PatCheckered}
			got, err := fast.HCFirstMin(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.HCFirstMin(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s victim %d: %+v, full reads %+v", prof, victim, got, want)
			}
		}
		f, r := fast.b.Model.KernelStats().Cells, ref.b.Model.KernelStats().Cells
		t.Logf("profile %s: %d cells with existence probes, %d with full reads", prof, f, r)
		if 3*f > r {
			t.Fatalf("profile %s: existence probes materialized %d cells, full reads %d; want at least 3× fewer", prof, f, r)
		}
	}
}

// ladderDisturber flips one bit of the victim row whenever its
// distance-1 ledger holds at least 2·threshold activations, and
// records the hammer count of every evaluation of the victim.
type ladderDisturber struct {
	victim    int
	threshold int64
	probes    []int64
}

func (d *ladderDisturber) flips(ctx dram.DisturbContext) bool {
	if ctx.Row != d.victim {
		return false
	}
	hammers := ctx.Ledger.Dist[0].Count / 2
	d.probes = append(d.probes, hammers)
	return hammers >= d.threshold
}

func (d *ladderDisturber) Disturb(ctx dram.DisturbContext) (int, []uint64) {
	if !d.flips(ctx) {
		return 0, nil
	}
	mask := make([]uint64, len(ctx.Data))
	mask[0] = 1
	return 1, mask
}

// ladderProber is ladderDisturber answering existence queries too.
type ladderProber struct{ *ladderDisturber }

func (d ladderProber) DisturbAny(ctx dram.DisturbContext) bool { return d.flips(ctx) }

// TestHCFirstProbeLadder pins HCFirst's bisection: from 256K hammers,
// Δ=128K halves 8 times down to 1000, then one final probe — so the
// resolution is 1000 activations — with identical probes whether the
// loop probes compare-read (the disturber answers existence queries) or
// read in full.
func TestHCFirstProbeLadder(t *testing.T) {
	cases := []struct {
		threshold int64
		ladder    []int64
		hcfirst   int64
	}{
		{1 << 40, []int64{256_000, 384_000, 448_000, 480_000, 496_000, 504_000, 508_000, 510_000, 511_000}, 0},
		{0, []int64{256_000, 128_000, 64_000, 32_000, 16_000, 8_000, 4_000, 2_000, 1_000}, 1_000},
		{300_000, []int64{256_000, 384_000, 320_000, 288_000, 304_000, 296_000, 300_000, 298_000, 299_000}, 300_000},
	}
	for _, tc := range cases {
		for _, probing := range []bool{false, true} {
			b := newBenchFor(t, "A", 5)
			const victim = 100
			ld := &ladderDisturber{victim: b.Module.Remap().ToPhysical(victim), threshold: tc.threshold}
			var dist dram.Disturber = ld
			if probing {
				dist = ladderProber{ld}
			}
			res, err := NewTester(withDisturber(t, b, dist)).HCFirst(HCFirstConfig{Bank: 0, VictimPhys: victim, Pattern: PatCheckered})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ld.probes, tc.ladder) {
				t.Fatalf("threshold %d, probing %v: probes %v, want %v", tc.threshold, probing, ld.probes, tc.ladder)
			}
			if res.Probes != len(tc.ladder) || res.Found != (tc.hcfirst > 0) || res.HCfirst != tc.hcfirst {
				t.Fatalf("threshold %d, probing %v: %+v, want HCfirst %d after %d probes", tc.threshold, probing, res, tc.hcfirst, len(tc.ladder))
			}
		}
	}
}
