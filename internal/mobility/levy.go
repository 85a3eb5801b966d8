package mobility

import (
	"fmt"
	"math"
)

// LevyConfig parameterizes Lévy-walk mobility: flight lengths follow a
// truncated power law with exponent Alpha, pause times a truncated power law
// with exponent Beta, and directions are uniform. Rhee et al. (TON 2011)
// showed human mobility is well-modelled by such walks, making this a
// realistic alternative to random waypoint for HFL studies.
type LevyConfig struct {
	Width  float64
	Height float64
	// Alpha is the flight-length power-law exponent (heavier tail for
	// smaller values); typical human traces fit α ∈ [1, 2].
	Alpha float64
	// MinFlight and MaxFlight truncate the flight-length distribution.
	MinFlight float64
	MaxFlight float64
	// Speed is the constant movement speed in distance per time unit.
	Speed float64
	// Beta is the pause-time power-law exponent and MaxPause its cap.
	Beta     float64
	MaxPause int64
}

// DefaultLevy resembles the parameters fitted to human walk traces, scaled
// to the default 100×100 region.
func DefaultLevy() LevyConfig {
	return LevyConfig{
		Width: 100, Height: 100,
		Alpha: 1.6, MinFlight: 1, MaxFlight: 60,
		Speed: 2, Beta: 1.8, MaxPause: 6,
	}
}

// Validate reports whether the config is usable.
func (c LevyConfig) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("mobility: levy region %vx%v invalid", c.Width, c.Height)
	case c.Alpha <= 0 || c.Beta <= 0:
		return fmt.Errorf("mobility: levy exponents %v/%v must be positive", c.Alpha, c.Beta)
	case c.MinFlight <= 0 || c.MaxFlight <= c.MinFlight:
		return fmt.Errorf("mobility: levy flight range [%v,%v] invalid", c.MinFlight, c.MaxFlight)
	case c.Speed <= 0:
		return fmt.Errorf("mobility: levy speed %v must be positive", c.Speed)
	case c.MaxPause < 0:
		return fmt.Errorf("mobility: negative pause cap %d", c.MaxPause)
	}
	return nil
}

// powerLaw draws from a truncated power law p(x) ∝ x^(−(α+1)) on [lo, hi]
// via inverse-transform sampling.
func powerLaw(rng uniformRNG, alpha, lo, hi float64) float64 {
	u := rng.Float64()
	la, ha := math.Pow(lo, -alpha), math.Pow(hi, -alpha)
	return math.Pow(la+u*(ha-la), -1/alpha)
}

// levyState is one device's Lévy-walk kinematic state: position, the
// current flight's direction and remaining length, and the remaining pause.
type levyState struct {
	x, y      float64
	theta     float64
	remaining float64
	pause     int64
}

// levyInit draws a device's initial state: position, then the first
// flight's direction and length.
func levyInit(rng uniformRNG, cfg LevyConfig) levyState {
	var st levyState
	st.x, st.y = rng.Float64()*cfg.Width, rng.Float64()*cfg.Height
	st.theta = rng.Float64() * 2 * math.Pi
	st.remaining = powerLaw(rng, cfg.Alpha, cfg.MinFlight, cfg.MaxFlight)
	return st
}

// levyStep advances one device by one time unit: sit out a pause, or fly at
// constant speed, drawing the next flight (and possibly a pause) when the
// current one is spent.
func levyStep(rng uniformRNG, st *levyState, cfg LevyConfig) {
	if st.pause > 0 {
		st.pause--
		return
	}
	step := cfg.Speed
	if step > st.remaining {
		step = st.remaining
	}
	st.x = clamp(st.x+step*math.Cos(st.theta), 0, cfg.Width)
	st.y = clamp(st.y+step*math.Sin(st.theta), 0, cfg.Height)
	st.remaining -= step
	if st.remaining <= 0 {
		st.theta = rng.Float64() * 2 * math.Pi
		st.remaining = powerLaw(rng, cfg.Alpha, cfg.MinFlight, cfg.MaxFlight)
		if cfg.MaxPause > 0 {
			p := powerLaw(rng, cfg.Beta, 1, float64(cfg.MaxPause)+1)
			st.pause = int64(p)
		}
	}
}
