package mobility

import (
	"math"
	"testing"
)

func TestComputeStatsHandmade(t *testing.T) {
	var tr Trace
	for _, r := range []Record{
		{Device: 0, Station: 0, Start: 0, End: 10},  // dwell 10
		{Device: 0, Station: 1, Start: 10, End: 14}, // dwell 4
		{Device: 1, Station: 1, Start: 0, End: 6},   // dwell 6
	} {
		if err := tr.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s := ComputeStats(&tr)
	if s.Records != 3 || s.Devices != 2 || s.Stations != 2 || s.Horizon != 14 {
		t.Fatalf("basic stats wrong: %+v", s)
	}
	if math.Abs(s.MeanDwell-20.0/3) > 1e-12 {
		t.Fatalf("mean dwell %v", s.MeanDwell)
	}
	if s.MedianDwell != 6 {
		t.Fatalf("median dwell %v", s.MedianDwell)
	}
	// Device 0 had 1 handover, device 1 none → 0.5 per device.
	if math.Abs(s.HandoversPerDevice-0.5) > 1e-12 {
		t.Fatalf("handovers per device %v", s.HandoversPerDevice)
	}
	if s.StationLoad[0] != 1 || s.StationLoad[1] != 2 {
		t.Fatalf("station load %v", s.StationLoad)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(&Trace{})
	if s.Records != 0 || s.MeanDwell != 0 {
		t.Fatalf("empty trace stats: %+v", s)
	}
}
