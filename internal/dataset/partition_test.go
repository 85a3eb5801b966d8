package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLongTailedProperties(t *testing.T) {
	tests := []struct {
		name    string
		classes int
		ratio   float64
	}{
		{"uniform", 10, 1.0},
		{"mild tail", 10, 0.8},
		{"steep tail", 10, 0.3},
		{"two classes", 2, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := LongTailed(tt.classes, tt.ratio)
			sum := 0.0
			for c := 0; c < len(p); c++ {
				if p[c] < 0 {
					t.Fatalf("negative mass at %d", c)
				}
				if c > 0 && p[c] > p[c-1]+1e-15 {
					t.Fatalf("distribution not non-increasing at %d", c)
				}
				sum += p[c]
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("sum = %v", sum)
			}
			if tt.ratio == 1.0 {
				for _, v := range p {
					if math.Abs(v-1.0/float64(tt.classes)) > 1e-12 {
						t.Fatal("ratio 1 should be uniform")
					}
				}
			}
		})
	}
}

func TestPartitionConfigValidate(t *testing.T) {
	valid := PartitionConfig{Devices: 4, SamplesPerDevice: 10, TailRatio: 0.5}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*PartitionConfig)
	}{
		{"zero devices", func(c *PartitionConfig) { c.Devices = 0 }},
		{"zero samples", func(c *PartitionConfig) { c.SamplesPerDevice = 0 }},
		{"zero ratio", func(c *PartitionConfig) { c.TailRatio = 0 }},
		{"ratio above one", func(c *PartitionConfig) { c.TailRatio = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := valid
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestPartitionShapesAndDeterminism(t *testing.T) {
	task, err := NewTask(MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PartitionConfig{Devices: 6, SamplesPerDevice: 30, TailRatio: 0.5, Seed: 11}
	a, err := Partition(task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 {
		t.Fatalf("got %d devices", len(a))
	}
	for m, d := range a {
		if d.Len() != 30 {
			t.Fatalf("device %d has %d samples", m, d.Len())
		}
	}
	b, err := Partition(task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := range a {
		for i := 0; i < a[m].Len(); i++ {
			if a[m].Label(i) != b[m].Label(i) {
				t.Fatalf("partition not deterministic for device %d sample %d", m, i)
			}
		}
	}
}

func TestPartitionIsHeterogeneous(t *testing.T) {
	task, err := NewTask(MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PartitionConfig{Devices: 20, SamplesPerDevice: 100, TailRatio: 0.4, Seed: 12}
	parts, err := Partition(task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Devices should be individually imbalanced...
	for m, d := range parts {
		if imbalance(d.ClassDistribution()) < 0.01 {
			t.Fatalf("device %d unexpectedly balanced", m)
		}
	}
	// ...and not all share the same dominant class (random permutations).
	dominant := make(map[int]bool)
	for _, d := range parts {
		hist := d.ClassHistogram()
		best := 0
		for c, n := range hist {
			if n > hist[best] {
				best = c
			}
		}
		dominant[best] = true
	}
	if len(dominant) < 3 {
		t.Fatalf("only %d distinct dominant classes across 20 devices", len(dominant))
	}
}

func TestImbalanceKnownValues(t *testing.T) {
	if got := imbalance([]float64{0.25, 0.25, 0.25, 0.25}); got != 0 {
		t.Fatalf("uniform imbalance = %v", got)
	}
	// One-hot over 2 classes: (1-0.5)² + (0-0.5)² = 0.5
	if got := imbalance([]float64{1, 0}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("one-hot imbalance = %v", got)
	}
}

func TestMixDistributions(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	mixed := mixDistributions([][]float64{a, b}, []float64{3, 1})
	if math.Abs(mixed[0]-0.75) > 1e-12 || math.Abs(mixed[1]-0.25) > 1e-12 {
		t.Fatalf("mix = %v", mixed)
	}
	if mixDistributions(nil, nil) != nil {
		t.Fatal("empty mix should be nil")
	}
	zero := mixDistributions([][]float64{a}, []float64{0})
	if zero[0] != 0 {
		t.Fatal("zero-weight mix should be zero")
	}
}

// Property: mixture of distributions is itself a distribution when inputs
// are distributions and at least one weight is positive.
func TestMixDistributionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rngDist := LongTailed(5, 0.6)
		n := 3
		dists := make([][]float64, n)
		weights := make([]float64, n)
		s := seed
		for i := range dists {
			// rotate a fixed distribution for variety
			rot := make([]float64, 5)
			for c := range rot {
				rot[c] = rngDist[(c+i+int(s%5+5))%5]
			}
			dists[i] = rot
			weights[i] = float64(i + 1)
		}
		mixed := mixDistributions(dists, weights)
		sum := 0.0
		for _, v := range mixed {
			if v < -1e-12 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// imbalance measures the class imbalance of a label distribution as the
// squared Euclidean distance to the uniform distribution. Zero means
// perfectly balanced; it is the quantity class-balance sampling minimizes
// over the selected group (the QCID objective of Fed-CBS).
func imbalance(dist []float64) float64 {
	u := 1.0 / float64(len(dist))
	s := 0.0
	for _, p := range dist {
		d := p - u
		s += d * d
	}
	return s
}

// mixDistributions returns the weighted mixture Σ w_i·dist_i of label
// distributions, normalizing the weights.
func mixDistributions(dists [][]float64, weights []float64) []float64 {
	if len(dists) == 0 {
		return nil
	}
	out := make([]float64, len(dists[0]))
	total := 0.0
	for _, w := range weights {
		total += w
	}
	//machlint:allow floateq all-zero weights is the exact degenerate case; any tolerance would misread tiny real weights
	if total == 0 {
		return out
	}
	for i, d := range dists {
		w := weights[i] / total
		for c, p := range d {
			out[c] += w * p
		}
	}
	return out
}
