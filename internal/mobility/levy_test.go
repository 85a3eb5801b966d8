package mobility

import (
	"math/rand"
	"sort"
	"testing"
)

func TestLevyConfigValidate(t *testing.T) {
	if err := DefaultLevy().Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*LevyConfig)
	}{
		{"zero width", func(c *LevyConfig) { c.Width = 0 }},
		{"zero alpha", func(c *LevyConfig) { c.Alpha = 0 }},
		{"flight range", func(c *LevyConfig) { c.MaxFlight = c.MinFlight }},
		{"zero speed", func(c *LevyConfig) { c.Speed = 0 }},
		{"negative pause", func(c *LevyConfig) { c.MaxPause = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultLevy()
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestPowerLawRangeAndTail(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		v := powerLaw(rng, 1.5, 1, 100)
		if v < 1-1e-9 || v > 100+1e-9 {
			t.Fatalf("power-law draw %v outside [1,100]", v)
		}
		vals[i] = v
	}
	sort.Float64s(vals)
	// Heavy tail: median far below mean.
	median := vals[n/2]
	mean := 0.0
	for _, v := range vals {
		mean += v / n
	}
	if !(median < mean/1.3) {
		t.Fatalf("not heavy-tailed: median %v vs mean %v", median, mean)
	}
}
