package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"minequiv/internal/topology"
)

func TestAnalyticRecurrenceValues(t *testing.T) {
	// Known values of Patel's recurrence from q_0 = 1.
	cases := []struct {
		n    int
		want float64
	}{
		{0, 1.0},
		{1, 0.75},
		{2, 0.609375},
		{3, 0.51654052734375},
	}
	for _, c := range cases {
		if got := AnalyticUniformThroughput(c.n); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("n=%d: %v, want %v", c.n, got, c.want)
		}
	}
	// Monotone decreasing in n.
	prev := 1.0
	for n := 1; n <= 12; n++ {
		cur := AnalyticUniformThroughput(n)
		if cur >= prev {
			t.Fatalf("recurrence not decreasing at n=%d", n)
		}
		prev = cur
	}
}

func TestAnalyticLoaded(t *testing.T) {
	// Zero load: zero throughput. Full load matches the basic form.
	if AnalyticUniformThroughputLoaded(5, 0) != 0 {
		t.Error("zero load nonzero")
	}
	if AnalyticUniformThroughputLoaded(5, 1) != AnalyticUniformThroughput(5) {
		t.Error("full load mismatch")
	}
	// Monotone in load.
	if AnalyticUniformThroughputLoaded(4, 0.3) >= AnalyticUniformThroughputLoaded(4, 0.9) {
		t.Error("not monotone in load")
	}
}

// TestSimulatorTracksAnalyticModel is the quantitative validation of the
// wave simulator: measured uniform throughput within 0.02 of the
// independence-approximation recurrence for several sizes and networks.
func TestSimulatorTracksAnalyticModel(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		want := AnalyticUniformThroughput(n)
		for _, name := range []string{topology.NameOmega, topology.NameBaseline} {
			f := fabricFor(t, name, n)
			got := throughput(t, f, Uniform(), 400, rand.New(rand.NewPCG(uint64(n), 0)))
			if math.Abs(got-want) > 0.02 {
				t.Errorf("%s n=%d: simulated %v vs analytic %v", name, n, got, want)
			}
		}
	}
}

// TestBernoulliLoadTracksAnalytic checks the loaded recurrence against
// Bernoulli wave traffic.
func TestBernoulliLoadTracksAnalytic(t *testing.T) {
	n := 5
	f := fabricFor(t, topology.NameFlip, n)
	for _, load := range []float64{0.25, 0.5, 0.75} {
		want := AnalyticUniformThroughputLoaded(n, load) / load
		rng := rand.New(rand.NewPCG(9, 0))
		// Measure delivered fraction of offered packets.
		got := throughput(t, f, Bernoulli(load), 600, rng)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("load %v: simulated %v vs analytic %v", load, got, want)
		}
	}
}
