package thermal

import (
	"math"
	"testing"
)

func TestPlantHeatsAndCools(t *testing.T) {
	p := DefaultPlant()
	start := p.Temperature()
	for i := 0; i < 100; i++ {
		p.Step(0.5, 1.0)
	}
	if p.Temperature() <= start {
		t.Fatal("full heater power should raise temperature")
	}
	hot := p.Temperature()
	for i := 0; i < 100; i++ {
		p.Step(0.5, 0)
	}
	if p.Temperature() >= hot {
		t.Fatal("heater off should cool toward ambient")
	}
}

func TestPlantEquilibrium(t *testing.T) {
	p := DefaultPlant()
	// At steady state with duty d: T = Tamb + d*Pmax*Rθ.
	const duty = 0.5
	want := p.AmbientC + duty*p.HeaterMaxW*p.ResistanceCPerW
	for i := 0; i < 20000; i++ {
		p.Step(0.5, duty)
	}
	if math.Abs(p.Temperature()-want) > 0.5 {
		t.Fatalf("equilibrium %v, want %v", p.Temperature(), want)
	}
}

func TestPlantClampsDuty(t *testing.T) {
	p := DefaultPlant()
	p.Step(1, 5) // clamped to 1
	over := p.Temperature()
	q := DefaultPlant()
	q.Step(1, 1)
	if over != q.Temperature() {
		t.Fatal("duty not clamped")
	}
}

func TestPIDDrivesErrorToZero(t *testing.T) {
	p := DefaultPlant()
	c := NewPID()
	setpoint := 70.0
	for i := 0; i < 4000; i++ {
		duty := c.Update(setpoint-p.Temperature(), 0.5)
		p.Step(0.5, duty)
	}
	if math.Abs(p.Temperature()-setpoint) > 0.2 {
		t.Fatalf("PID settled at %v, want %v", p.Temperature(), setpoint)
	}
}

func TestPIDOutputClamped(t *testing.T) {
	c := NewPID()
	if out := c.Update(1000, 0.5); out > 1 {
		t.Fatalf("output %v above clamp", out)
	}
	if out := c.Update(-1000, 0.5); out < 0 {
		t.Fatalf("output %v below clamp", out)
	}
}

func TestThermocoupleNoiseBounded(t *testing.T) {
	p := DefaultPlant()
	p.SetTemperature(60)
	tc := NewThermocouple(5)
	for i := 0; i < 1000; i++ {
		r := tc.Read(p)
		if math.Abs(r-60) > 0.1 {
			t.Fatalf("thermocouple error %v exceeds ±0.1 °C", r-60)
		}
	}
}

func TestThermocoupleDeterministic(t *testing.T) {
	p := DefaultPlant()
	a := NewThermocouple(9)
	b := NewThermocouple(9)
	for i := 0; i < 50; i++ {
		if a.Read(p) != b.Read(p) {
			t.Fatal("same-seed thermocouples diverged")
		}
	}
}

func TestChamberSettlesAcrossStudyRange(t *testing.T) {
	ch := NewChamber(1)
	for temp := 50.0; temp <= 90.0; temp += 5 {
		if err := ch.SetAndSettle(temp); err != nil {
			t.Fatalf("settle at %v °C: %v", temp, err)
		}
		if got := ch.Temperature(); math.Abs(got-temp) > 0.3 {
			t.Fatalf("settled at %v, want %v", got, temp)
		}
	}
}

func TestChamberRejectsSubAmbient(t *testing.T) {
	ch := NewChamber(3)
	if err := ch.SetAndSettle(10); err == nil {
		t.Fatal("expected error below ambient")
	}
}

func TestChamberSettleTimeout(t *testing.T) {
	ch := NewChamber(4)
	ch.MaxSettleSeconds = 1 // absurdly short
	if err := ch.SetAndSettle(90); err != ErrSettleTimeout {
		t.Fatalf("expected timeout, got %v", err)
	}
}

func TestChamberElapsedAdvances(t *testing.T) {
	ch := NewChamber(6)
	if err := ch.SetAndSettle(55); err != nil {
		t.Fatal(err)
	}
	before := ch.Elapsed()
	if err := ch.SetAndSettle(60); err != nil {
		t.Fatal(err)
	}
	if ch.Elapsed() <= before {
		t.Fatal("elapsed time did not advance")
	}
}

func TestCoolerEnablesSubAmbient(t *testing.T) {
	ch := NewChamber(7)
	ch.Plant.CoolerMaxW, ch.PID.OutLo = 80, -1 // a fitted Peltier cooler
	if err := ch.SetAndSettle(15); err != nil {
		t.Fatalf("settle at 15 °C with cooler: %v", err)
	}
	if got := ch.Temperature(); math.Abs(got-15) > 0.3 {
		t.Fatalf("settled at %v, want 15", got)
	}
}

func TestCoolerOffPlantClampsNegativeDuty(t *testing.T) {
	p := DefaultPlant()
	p.SetTemperature(60)
	before := p.Temperature()
	p.Step(1, -1) // no cooler: clamped to 0 → passive cooling only
	passive := before - p.Temperature()
	q := DefaultPlant()
	q.SetTemperature(60)
	q.Step(1, 0)
	if math.Abs(passive-(before-q.Temperature())) > 1e-9 {
		t.Fatal("negative duty without cooler should equal duty 0")
	}
}

func TestCoolerAcceleratesCooling(t *testing.T) {
	hot := func(cool bool) float64 {
		p := DefaultPlant()
		if cool {
			p.CoolerMaxW = 80
		}
		p.SetTemperature(90)
		duty := 0.0
		if cool {
			duty = -1
		}
		for i := 0; i < 60; i++ {
			p.Step(0.5, duty)
		}
		return p.Temperature()
	}
	if hot(true) >= hot(false) {
		t.Fatal("active cooling should beat passive cooling")
	}
}

// TestChamberCopyFrom: copying a chamber into another keeps the
// destination's own components, shares nothing with the source, and
// leaves the destination evolving exactly as the source does.
func TestChamberCopyFrom(t *testing.T) {
	src := NewChamber(9)
	if err := src.SetAndSettle(72); err != nil {
		t.Fatal(err)
	}
	dst := NewChamber(4)
	if err := dst.SetAndSettle(55); err != nil {
		t.Fatal(err)
	}
	plant, pid, tc, rnd := dst.Plant, dst.PID, dst.TC, dst.TC.rnd
	dst.CopyFrom(src)
	if dst.Plant != plant || dst.PID != pid || dst.TC != tc || dst.TC.rnd != rnd {
		t.Fatal("CopyFrom replaced the destination's components")
	}
	if dst.Setpoint() != 72 || dst.Elapsed() != src.Elapsed() || *dst.PID != *src.PID ||
		dst.Plant.Temperature() != src.Plant.Temperature() {
		t.Fatal("CopyFrom did not copy the source's state")
	}
	for _, temp := range []float64{80, 65} {
		if err := src.SetAndSettle(temp); err != nil {
			t.Fatal(err)
		}
		if err := dst.SetAndSettle(temp); err != nil {
			t.Fatal(err)
		}
		if src.Plant.Temperature() != dst.Plant.Temperature() || src.Temperature() != dst.Temperature() {
			t.Fatalf("copy diverged from the source at %v °C", temp)
		}
	}
	if n := testing.AllocsPerRun(10, func() { dst.CopyFrom(src) }); n != 0 {
		t.Fatalf("CopyFrom allocated %.0f times per run, want 0", n)
	}
}

// TestChamberCloneIndependent: a clone starts in the original's exact
// state — including the thermocouple's noise stream — and shares no
// mutable state with it afterwards.
func TestChamberCloneIndependent(t *testing.T) {
	ch := NewChamber(9)
	if err := ch.SetAndSettle(60); err != nil {
		t.Fatal(err)
	}
	c1, c2 := ch.Clone(), ch.Clone()
	if c1.Plant == ch.Plant || c1.PID == ch.PID || c1.TC == ch.TC || c1.TC.rnd == ch.TC.rnd {
		t.Fatal("clone shares plant, PID or thermocouple with the original")
	}
	// Drive the original elsewhere; the clones must not notice.
	if err := ch.SetAndSettle(85); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		ch.Temperature()
	}
	if c1.Setpoint() != 60 || c1.Plant.Temperature() != c2.Plant.Temperature() || c1.Elapsed() != c2.Elapsed() {
		t.Fatalf("clone state moved with the original: setpoint %v, plant %v vs %v", c1.Setpoint(), c1.Plant.Temperature(), c2.Plant.Temperature())
	}
	// The two clones evolve identically: same settle, same readings.
	if err := c1.SetAndSettle(70); err != nil {
		t.Fatal(err)
	}
	if err := c2.SetAndSettle(70); err != nil {
		t.Fatal(err)
	}
	if *c1.Plant != *c2.Plant || *c1.PID != *c2.PID || c1.Elapsed() != c2.Elapsed() {
		t.Fatal("clones diverged on the same settle")
	}
	for i := 0; i < 16; i++ {
		if a, b := c1.Temperature(), c2.Temperature(); a != b {
			t.Fatalf("read %d: clones read %v and %v", i, a, b)
		}
	}
}
