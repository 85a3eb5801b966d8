package sampling

import (
	"math/rand"
	"testing"
)

func TestOortConfigValidate(t *testing.T) {
	if err := DefaultOortConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*OortConfig)
	}{
		{"exploration above 1", func(c *OortConfig) { c.ExplorationFraction = 1.5 }},
		{"negative staleness", func(c *OortConfig) { c.StalenessCoef = -1 }},
		{"zero quantile", func(c *OortConfig) { c.OutlierQuantile = 0 }},
		{"qmin 1", func(c *OortConfig) { c.QMin = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultOortConfig()
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestOortSelectsHighUtilityDevices(t *testing.T) {
	cfg := DefaultOortConfig()
	cfg.ExplorationFraction = 0 // pure exploitation for this test
	o, err := NewOort(6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Devices 0..5 with rising utilities; all seen recently.
	for m := 0; m < 6; m++ {
		observe(o, 10, 0, m, []float64{float64(m + 1)})
	}
	q := probabilities(o, &EdgeContext{
		Step: 11, Capacity: 2, Members: []int{0, 1, 2, 3, 4, 5},
		RNG: rand.New(rand.NewSource(1)),
	})
	chosen := 0
	for i, v := range q {
		if v == 1 {
			chosen++
			if i < 3 {
				t.Fatalf("low-utility device %d selected: %v", i, q)
			}
		} else if v != 0 {
			t.Fatalf("oort probability %v not in {0,1}", v)
		}
	}
	if chosen != 2 {
		t.Fatalf("selected %d devices, want 2", chosen)
	}
}

func TestOortExplorationBudget(t *testing.T) {
	cfg := DefaultOortConfig()
	cfg.ExplorationFraction = 0.5
	o, err := NewOort(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Half the members explored, half unseen; capacity 4 → 2 exploration
	// slots go to unseen devices.
	for m := 0; m < 4; m++ {
		observe(o, 5, 0, m, []float64{10})
	}
	q := probabilities(o, &EdgeContext{
		Step: 6, Capacity: 4, Members: []int{0, 1, 2, 3, 4, 5, 6, 7},
		RNG: rand.New(rand.NewSource(2)),
	})
	unseenChosen := 0
	for i := 4; i < 8; i++ {
		if q[i] == 1 {
			unseenChosen++
		}
	}
	if unseenChosen != 2 {
		t.Fatalf("%d unseen devices chosen, want 2 (50%% of capacity 4)", unseenChosen)
	}
}

func TestOortOutlierClipping(t *testing.T) {
	cfg := DefaultOortConfig()
	cfg.ExplorationFraction = 0
	cfg.OutlierQuantile = 0.5 // clip hard for the test
	cfg.StalenessCoef = 0
	o, err := NewOort(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One pathological device with an enormous utility; clipping at the
	// median must prevent it from being the sole determinant: with equal
	// clipped utilities the selection is by order, not by the outlier.
	observe(o, 3, 0, 0, []float64{1e9})
	observe(o, 3, 0, 1, []float64{2})
	observe(o, 3, 0, 2, []float64{2})
	observe(o, 3, 0, 3, []float64{2})
	q := probabilities(o, &EdgeContext{
		Step: 4, Capacity: 3, Members: []int{0, 1, 2, 3},
		RNG: rand.New(rand.NewSource(3)),
	})
	// After clipping to the median (2), the outlier's advantage is capped:
	// at least two of the normal devices must be selected.
	normal := 0
	for i := 1; i < 4; i++ {
		if q[i] == 1 {
			normal++
		}
	}
	if normal < 2 {
		t.Fatalf("outlier dominated selection despite clipping: %v", q)
	}
}

func TestOortCapacityCoversAll(t *testing.T) {
	o, err := NewOort(3, DefaultOortConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := probabilities(o, &EdgeContext{
		Step: 1, Capacity: 5, Members: []int{0, 1, 2},
		RNG: rand.New(rand.NewSource(4)),
	})
	for _, v := range q {
		if v != 1 {
			t.Fatalf("capacity covers edge but q = %v", q)
		}
	}
	if o.Unbiased() {
		t.Fatal("oort must be a biased active-selection strategy")
	}
}
