package metrics

import (
	"math"
	"strings"
	"testing"
)

func mkHistory(points ...Point) *History {
	h := &History{}
	for _, p := range points {
		h.Add(p)
	}
	return h
}

func TestTimeToAccuracy(t *testing.T) {
	h := mkHistory(
		Point{Step: 5, Accuracy: 0.3},
		Point{Step: 10, Accuracy: 0.6},
		Point{Step: 15, Accuracy: 0.55},
		Point{Step: 20, Accuracy: 0.8},
	)
	tests := []struct {
		target   float64
		wantStep int
		wantOK   bool
	}{
		{0.25, 5, true},
		{0.6, 10, true},
		{0.7, 20, true},
		{0.9, 0, false},
	}
	for _, tt := range tests {
		step, ok := h.TimeToAccuracy(tt.target)
		if step != tt.wantStep || ok != tt.wantOK {
			t.Fatalf("TimeToAccuracy(%v) = (%d,%v), want (%d,%v)", tt.target, step, ok, tt.wantStep, tt.wantOK)
		}
	}
}

func TestFinalAndBestAccuracy(t *testing.T) {
	var empty History
	if empty.FinalAccuracy() != 0 || empty.BestAccuracy() != 0 {
		t.Fatal("empty history should report zero accuracies")
	}
	h := mkHistory(Point{Step: 1, Accuracy: 0.9}, Point{Step: 2, Accuracy: 0.7})
	if h.FinalAccuracy() != 0.7 {
		t.Fatalf("FinalAccuracy = %v", h.FinalAccuracy())
	}
	if h.BestAccuracy() != 0.9 {
		t.Fatalf("BestAccuracy = %v", h.BestAccuracy())
	}
}

func TestSmoothed(t *testing.T) {
	h := mkHistory(
		Point{Step: 1, Accuracy: 0.0, Loss: 2},
		Point{Step: 2, Accuracy: 1.0, Loss: 0},
		Point{Step: 3, Accuracy: 0.5, Loss: 1},
	)
	s := h.Smoothed(2)
	want := []float64{0.0, 0.5, 0.75}
	for i, p := range s.Points {
		if math.Abs(p.Accuracy-want[i]) > 1e-12 {
			t.Fatalf("smoothed[%d] = %v, want %v", i, p.Accuracy, want[i])
		}
	}
	// Window 1 must be identical, and the original must be untouched.
	id := h.Smoothed(1)
	for i := range h.Points {
		if id.Points[i] != h.Points[i] {
			t.Fatal("window-1 smoothing changed values")
		}
	}
	if h.Points[1].Accuracy != 1.0 {
		t.Fatal("Smoothed mutated the original history")
	}
}

func TestWriteCSV(t *testing.T) {
	h := mkHistory(Point{Step: 3, Accuracy: 0.5, Loss: 1.25})
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.HasPrefix(got, "step,accuracy,loss\n") {
		t.Fatalf("missing header: %q", got)
	}
	if !strings.Contains(got, "3,0.500000,1.250000") {
		t.Fatalf("missing row: %q", got)
	}
}

func TestAverageHistoriesAlignedSteps(t *testing.T) {
	a := mkHistory(Point{Step: 10, Accuracy: 0.4}, Point{Step: 20, Accuracy: 0.8})
	b := mkHistory(Point{Step: 10, Accuracy: 0.6}, Point{Step: 20, Accuracy: 0.6})
	avg := AverageHistories([]*History{a, b})
	if avg.Len() != 2 {
		t.Fatalf("averaged %d points", avg.Len())
	}
	if math.Abs(avg.Points[0].Accuracy-0.5) > 1e-12 || math.Abs(avg.Points[1].Accuracy-0.7) > 1e-12 {
		t.Fatalf("averaged values wrong: %+v", avg.Points)
	}
}

func TestAverageHistoriesInterpolation(t *testing.T) {
	a := mkHistory(Point{Step: 0, Accuracy: 0}, Point{Step: 10, Accuracy: 1})
	b := mkHistory(Point{Step: 5, Accuracy: 0.5})
	avg := AverageHistories([]*History{a, b})
	// At step 5: a interpolates to 0.5, b is exactly 0.5 → average 0.5.
	for _, p := range avg.Points {
		if p.Step == 5 && math.Abs(p.Accuracy-0.5) > 1e-12 {
			t.Fatalf("interpolated average at 5 = %v", p.Accuracy)
		}
	}
	if AverageHistories(nil).Len() != 0 {
		t.Fatal("empty input should give empty history")
	}
}

func TestSavedPercent(t *testing.T) {
	tests := []struct {
		name      string
		mach      int
		baselines []int
		want      float64
	}{
		{"paper style", 110, []int{160, 245, 185}, 31.25},
		{"paper's Table I arithmetic", 110, []int{155, 255, 180}, 45.0 / 155 * 100}, // ≈ 29.03%
		{"mach worse", 200, []int{100}, -100},
		{"no baselines", 50, nil, 0},
		{"zero baselines ignored", 50, []int{0, 100}, 50},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := SavedPercent(tt.mach, tt.baselines)
			if math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("SavedPercent = %v, want %v", got, tt.want)
			}
		})
	}
}
