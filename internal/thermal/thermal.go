// Package thermal simulates the study's temperature-control loop: a
// pair of silicone heater pads clamped to the module (a first-order
// thermal plant), a thermocouple with ±0.1 °C accuracy, and a Maxwell
// FT200-style PID controller that holds the DRAM at a reference
// temperature (§4.1).
package thermal

import (
	"errors"
	"fmt"

	"rowhammer/internal/rng"
)

// Plant is a first-order thermal model of a DRAM module clamped in
// heater pads: C·dT/dt = P·η − (T − Tamb)/Rθ.
type Plant struct {
	// AmbientC is the chamber ambient temperature.
	AmbientC float64
	// CapacityJPerC is the thermal mass of module + pads.
	CapacityJPerC float64
	// ResistanceCPerW is the thermal resistance to ambient.
	ResistanceCPerW float64
	// HeaterMaxW is the heater pads' maximum power.
	HeaterMaxW float64
	// CoolerMaxW is the optional Peltier cooler's maximum heat-removal
	// power (0 = heater-only rig, the study's configuration; Defense
	// Improvement 4 motivates adding cooling capacity).
	CoolerMaxW float64

	tempC float64
}

// DefaultPlant returns a plant roughly matching a DIMM with clamped
// heater pads in 25 °C ambient.
func DefaultPlant() *Plant {
	p := &Plant{
		AmbientC:        25,
		CapacityJPerC:   60,
		ResistanceCPerW: 1.4,
		HeaterMaxW:      120,
	}
	p.tempC = p.AmbientC
	return p
}

// Temperature returns the plant's true (noise-free) temperature.
func (p *Plant) Temperature() float64 { return p.tempC }

// SetTemperature forces the plant state (test setup).
func (p *Plant) SetTemperature(c float64) { p.tempC = c }

// Step advances the plant by dt seconds with the actuator driven at
// duty in [-1,1]: positive drives the heater, negative the cooler
// (clamped to 0 when no cooler is fitted).
func (p *Plant) Step(dt, duty float64) {
	if duty > 1 {
		duty = 1
	}
	lo := 0.0
	if p.CoolerMaxW > 0 {
		lo = -1
	}
	if duty < lo {
		duty = lo
	}
	power := duty * p.HeaterMaxW
	if duty < 0 {
		power = duty * p.CoolerMaxW
	}
	dT := (power - (p.tempC-p.AmbientC)/p.ResistanceCPerW) / p.CapacityJPerC
	p.tempC += dT * dt
}

// PID is a discrete PID controller with output clamping and integral
// anti-windup.
type PID struct {
	Kp, Ki, Kd float64
	OutLo      float64
	OutHi      float64

	integral float64
	lastErr  float64
	primed   bool
}

// NewPID returns a controller tuned for the default plant.
func NewPID() *PID {
	return &PID{Kp: 0.35, Ki: 0.02, Kd: 0.12, OutLo: 0, OutHi: 1}
}

// Update computes the control output for the given setpoint error over
// a dt-second step.
func (c *PID) Update(err, dt float64) float64 {
	deriv := 0.0
	if c.primed && dt > 0 {
		deriv = (err - c.lastErr) / dt
	}
	c.lastErr = err
	c.primed = true

	c.integral += err * dt
	out := c.Kp*err + c.Ki*c.integral + c.Kd*deriv
	// Anti-windup: clamp and bleed the integral when saturated.
	if out > c.OutHi {
		out = c.OutHi
		if c.Ki > 0 {
			c.integral = (out - c.Kp*err - c.Kd*deriv) / c.Ki
		}
	} else if out < c.OutLo {
		out = c.OutLo
		if c.Ki > 0 {
			c.integral = (out - c.Kp*err - c.Kd*deriv) / c.Ki
		}
	}
	return out
}

// Reset clears the controller state.
func (c *PID) Reset() {
	c.integral = 0
	c.lastErr = 0
	c.primed = false
}

// Thermocouple reads the plant with bounded sensor noise (±0.1 °C, the
// study's measurement accuracy).
type Thermocouple struct {
	NoiseC float64
	rnd    *rng.Stream
}

// NewThermocouple returns a sensor with deterministic noise from seed.
func NewThermocouple(seed uint64) *Thermocouple {
	return &Thermocouple{NoiseC: 0.1, rnd: rng.NewStream(rng.Hash64(seed, 0x7c))}
}

// Read samples the plant temperature with noise.
func (tc *Thermocouple) Read(p *Plant) float64 {
	return p.Temperature() + tc.rnd.Range(-tc.NoiseC, tc.NoiseC)
}

// Chamber ties plant, sensor and controller into the closed loop the
// host machine runs over RS485: set a reference, wait for settle, then
// hold during a test.
type Chamber struct {
	Plant *Plant
	PID   *PID
	TC    *Thermocouple

	// StepSeconds is the control-loop period.
	StepSeconds float64
	// ToleranceC is the settled-band half width.
	ToleranceC float64
	// HoldSteps is how many consecutive in-band reads count as settled.
	HoldSteps int
	// MaxSettleSeconds bounds a settle operation.
	MaxSettleSeconds float64

	setpoint float64
	elapsed  float64
}

// NewChamber builds a chamber with the default plant and tuning.
func NewChamber(seed uint64) *Chamber {
	return &Chamber{
		Plant:            DefaultPlant(),
		PID:              NewPID(),
		TC:               NewThermocouple(seed),
		StepSeconds:      0.5,
		ToleranceC:       0.1,
		HoldSteps:        8,
		MaxSettleSeconds: 3600,
	}
}

// Clone returns an independent deep copy of the chamber: plant, PID
// state, setpoint, elapsed time and the thermocouple's noise stream,
// so the copy's future readings equal the original's.
func (ch *Chamber) Clone() *Chamber {
	c := &Chamber{Plant: new(Plant), PID: new(PID), TC: &Thermocouple{rnd: new(rng.Stream)}}
	c.CopyFrom(ch)
	return c
}

// CopyFrom makes ch an independent deep copy of src, as Clone does,
// but into ch's own plant, PID and thermocouple, so it allocates
// nothing.
func (ch *Chamber) CopyFrom(src *Chamber) {
	plant, pid, tc, rnd := ch.Plant, ch.PID, ch.TC, ch.TC.rnd
	*plant, *pid, *tc, *rnd = *src.Plant, *src.PID, *src.TC, *src.TC.rnd
	tc.rnd = rnd
	*ch = *src
	ch.Plant, ch.PID, ch.TC = plant, pid, tc
}

// ErrSettleTimeout reports that the setpoint was not reached in time.
var ErrSettleTimeout = errors.New("thermal: settle timeout")

// Setpoint returns the current reference temperature.
func (ch *Chamber) Setpoint() float64 { return ch.setpoint }

// Elapsed returns total simulated control-loop seconds.
func (ch *Chamber) Elapsed() float64 { return ch.elapsed }

// SetAndSettle drives the chamber to tempC and blocks (in simulated
// time) until the measured temperature stays within ToleranceC for
// HoldSteps consecutive control periods.
func (ch *Chamber) SetAndSettle(tempC float64) error {
	if tempC < ch.Plant.AmbientC && ch.Plant.CoolerMaxW <= 0 {
		return fmt.Errorf("thermal: setpoint %.1f °C below ambient %.1f °C (no cooler fitted)", tempC, ch.Plant.AmbientC)
	}
	ch.setpoint = tempC
	ch.PID.Reset()
	inBand := 0
	for t := 0.0; t < ch.MaxSettleSeconds; t += ch.StepSeconds {
		measured := ch.step()
		if diff := measured - tempC; diff >= -ch.ToleranceC && diff <= ch.ToleranceC {
			inBand++
			if inBand >= ch.HoldSteps {
				return nil
			}
		} else {
			inBand = 0
		}
	}
	return ErrSettleTimeout
}

// step advances one control period toward the current setpoint and
// returns the measured temperature.
func (ch *Chamber) step() float64 {
	measured := ch.TC.Read(ch.Plant)
	duty := ch.PID.Update(ch.setpoint-measured, ch.StepSeconds)
	ch.Plant.Step(ch.StepSeconds, duty)
	ch.elapsed += ch.StepSeconds
	return measured
}

// ErrGuardband reports that a measurement left the study's ±0.5 °C
// temperature-validity band (§4.1) and must be discarded and re-run.
var ErrGuardband = errors.New("thermal: temperature drifted beyond guardband")

// Temperature returns the current measured temperature.
func (ch *Chamber) Temperature() float64 { return ch.TC.Read(ch.Plant) }
