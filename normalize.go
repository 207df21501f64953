package rowhammer

import "fmt"

// DefaultSeed is the master seed every measurement layer defaults to.
const DefaultSeed uint64 = 0x5eed

// TempStepError is the typed rejection of a malformed temperature
// sweep: a non-positive step (which would loop forever building the
// grid, or silently produce an empty sweep when lo > hi) or a grid
// whose points do not strictly increase.
type TempStepError struct {
	// Lo, Hi, Step describe the rejected grid request; for a
	// ready-made grid, Lo and Hi are the offending adjacent points and
	// Step their (non-positive) difference.
	Lo, Hi, Step float64
	// Index is the grid position of the offending step (-1 when the
	// error comes from grid construction rather than validation).
	Index int
}

func (e *TempStepError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("rowhammer: temperature grid step %d is not increasing (%g°C then %g°C, step %g): the sweep would be empty or repeat points",
			e.Index, e.Lo, e.Hi, e.Step)
	}
	return fmt.Sprintf("rowhammer: temperature step %g°C over [%g, %g]°C must be positive: a zero or negative step never reaches the upper bound",
		e.Step, e.Lo, e.Hi)
}

// MaxSweepTemps is the most points a temperature grid may have: a
// sweep records each flipped cell's temperatures as one bit per point
// of a 32-bit mask (TempSweepResult.Cells).
const MaxSweepTemps = 32

// TempGridSizeError is the typed rejection of a temperature grid with
// more than MaxSweepTemps points, whose extra points a sweep could not
// record: the Fig. 3 clusters and Table 3's no-gap and full-range
// fractions would silently ignore them.
type TempGridSizeError struct {
	// Points is the rejected grid's length.
	Points int
}

func (e *TempGridSizeError) Error() string {
	return fmt.Sprintf("rowhammer: temperature grid has %d points, more than the %d a sweep can record per cell",
		e.Points, MaxSweepTemps)
}

// TempGrid builds the inclusive temperature grid lo, lo+step, ... hi.
// A non-positive step is rejected with a *TempStepError instead of
// looping forever (lo < hi) or silently yielding an empty sweep
// (lo > hi); so is an inverted range.
func TempGrid(lo, hi, step float64) ([]float64, error) {
	if step <= 0 || hi < lo {
		return nil, &TempStepError{Lo: lo, Hi: hi, Step: step, Index: -1}
	}
	var out []float64
	for t := lo; t <= hi; t += step {
		out = append(out, t)
	}
	return out, nil
}

// ValidateTempGrid rejects a ready-made temperature grid whose points
// do not strictly increase — the descending or duplicated grids that
// used to slip through normalization and surface as nonsense sweep
// bitmasks — with a *TempStepError naming the offending step, and a
// grid of more than MaxSweepTemps points with a *TempGridSizeError.
func ValidateTempGrid(temps []float64) error {
	if len(temps) > MaxSweepTemps {
		return &TempGridSizeError{Points: len(temps)}
	}
	for i := 1; i < len(temps); i++ {
		if step := temps[i] - temps[i-1]; step <= 0 {
			return &TempStepError{Lo: temps[i-1], Hi: temps[i], Step: step, Index: i}
		}
	}
	return nil
}

// StudyTemps returns the paper's tested temperature grid:
// 50–90 °C in 5 °C steps.
func StudyTemps() []float64 {
	out, err := TempGrid(50, 90, 5)
	if err != nil {
		panic(err) // unreachable: the study grid is a constant
	}
	return out
}

// FillMeasureDefaults is the single normalization helper behind every
// default-filling path (exp.Config, MeasureScope, campaign spec
// lowering, CLI flag resolution): a zero Scale becomes DefaultScale(),
// a zero Geometry becomes DefaultDDR4Geometry(), a zero seed becomes
// DefaultSeed, and an empty temperature grid becomes StudyTemps().
// A nil pointer skips that knob, so callers normalize exactly the
// fields they own.
//
// A caller-supplied temperature grid is validated, not trusted
// (ValidateTempGrid): a grid with a zero or negative step between
// points is rejected with a *TempStepError and one of more than
// MaxSweepTemps points with a *TempGridSizeError — the only errors
// this helper can return, so call sites that pass a nil temps knob
// cannot fail.
func FillMeasureDefaults(scale *Scale, geom *Geometry, seed *uint64, temps *[]float64) error {
	if scale != nil && *scale == (Scale{}) {
		*scale = DefaultScale()
	}
	if geom != nil && *geom == (Geometry{}) {
		*geom = DefaultDDR4Geometry()
	}
	if seed != nil && *seed == 0 {
		*seed = DefaultSeed
	}
	if temps != nil {
		if len(*temps) == 0 {
			*temps = StudyTemps()
		} else if err := ValidateTempGrid(*temps); err != nil {
			return err
		}
	}
	return nil
}

// TinyScale returns the CI-friendly measurement scale the CLIs expose
// as -scale tiny (matching internal/exp's test scale).
func TinyScale() Scale {
	return Scale{RowsPerRegion: 10, Regions: 2, Hammers: 150_000, MaxHammers: 512_000, Repetitions: 1, ModulesPerMfr: 2}
}

// TinyGeometry returns the reduced geometry paired with TinyScale.
func TinyGeometry() Geometry {
	return Geometry{Banks: 1, RowsPerBank: 512, SubarrayRows: 128, Chips: 8, ChipWidth: 8, ColumnsPerRow: 32}
}

// PaperGeometry returns the full-size geometry paired with
// PaperScale.
func PaperGeometry() Geometry {
	return Geometry{Banks: 4, RowsPerBank: 65536, SubarrayRows: 512, Chips: 8, ChipWidth: 8, ColumnsPerRow: 128}
}

// NamedScale resolves the scale names shared by the rhchar and
// rhfleet CLIs ("tiny", "default", "paper"). A zero Geometry return
// means "use the defaults"; ok is false for unknown names.
func NamedScale(name string) (scale Scale, geom Geometry, ok bool) {
	switch name {
	case "tiny":
		return TinyScale(), TinyGeometry(), true
	case "default":
		return DefaultScale(), Geometry{}, true
	case "paper":
		return PaperScale(), PaperGeometry(), true
	}
	return Scale{}, Geometry{}, false
}
