package engine

import "math"

// Stats summarizes one per-trial metric. It is also the summary
// statistic of the public API and of sweep results, so its JSON tags
// are wire format.
type Stats struct {
	N    int     `json:"n"`    // trials contributing a value
	Mean float64 `json:"mean"` // mean over those trials
	Std  float64 `json:"std"`  // sample standard deviation (0 when N < 2)
	// CI95 is the half-width of the normal-approximation 95% confidence
	// interval for the mean, 1.96·Std/√N (0 when N < 2).
	CI95 float64 `json:"ci95"`
}

// ci95 returns the CI95 half-width for n values with sample standard
// deviation std.
func ci95(n int, std float64) float64 {
	if n < 2 {
		return 0
	}
	return 1.96 * std / math.Sqrt(float64(n))
}

// summarize reduces xs with a two-pass mean/variance so the result is a
// pure function of the slice contents in order — identical however many
// workers produced the values.
func summarize(xs []float64) Stats {
	s := Stats{N: len(xs)}
	if s.N == 0 {
		return s
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	if s.N < 2 {
		return s
	}
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(s.N-1))
	s.CI95 = ci95(s.N, s.Std)
	return s
}
