package mobility

import (
	"fmt"
	"sort"
)

// TraceStats summarizes a mobility trace: the quantities one inspects to
// check a synthetic trace against the statistics real telecom datasets
// exhibit (dwell times, handover intensity, station load skew).
type TraceStats struct {
	Records            int
	Devices            int
	Stations           int
	Horizon            int64
	MeanDwell          float64
	MedianDwell        float64
	P90Dwell           float64
	HandoversPerDevice float64
	// StationLoad is the number of records per station.
	StationLoad []int
}

// ComputeStats derives summary statistics from a trace.
func ComputeStats(t *Trace) TraceStats {
	s := TraceStats{
		Records:  len(t.Records),
		Devices:  t.Devices(),
		Stations: t.Stations(),
		Horizon:  t.Horizon(),
	}
	if s.Records == 0 {
		return s
	}
	dwells := make([]float64, 0, s.Records)
	perDevice := map[int]int{}
	s.StationLoad = make([]int, s.Stations)
	total := 0.0
	for _, r := range t.Records {
		d := float64(r.End - r.Start)
		dwells = append(dwells, d)
		total += d
		perDevice[r.Device]++
		s.StationLoad[r.Station]++
	}
	sort.Float64s(dwells)
	s.MeanDwell = total / float64(len(dwells))
	s.MedianDwell = quantile(dwells, 0.5)
	s.P90Dwell = quantile(dwells, 0.9)
	handovers := 0
	for _, n := range perDevice {
		handovers += n - 1 // records per device minus one = station changes
	}
	s.HandoversPerDevice = float64(handovers) / float64(len(perDevice))
	return s
}

// quantile returns the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// String renders the stats for CLI output.
func (s TraceStats) String() string {
	return fmt.Sprintf("records=%d devices=%d stations=%d horizon=%d dwell(mean/med/p90)=%.1f/%.1f/%.1f handovers/device=%.1f",
		s.Records, s.Devices, s.Stations, s.Horizon,
		s.MeanDwell, s.MedianDwell, s.P90Dwell, s.HandoversPerDevice)
}
