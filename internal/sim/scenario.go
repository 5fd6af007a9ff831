package sim

// The scenario registry names every traffic pattern so that all
// consumers — cmd/minsim, cmd/minbench, the experiments harness, the
// examples — draw from one shared catalog instead of hand-rolling
// pattern switches.

// ScenarioParams carries the tunables a scenario may consume; fields a
// scenario does not use are ignored. DefaultScenarioParams gives the
// conventional values used by the CLIs.
type ScenarioParams struct {
	Load      float64 // offered load (bernoulli; burst phase of bursty)
	HotProb   float64 // probability of addressing the hot output (hotspot)
	HotDst    int     // the hot output terminal (hotspot)
	BurstProb float64 // probability a wave is a burst wave (bursty)
	IdleLoad  float64 // offered load outside bursts (bursty)
}

// DefaultScenarioParams returns the conventional tunable values.
func DefaultScenarioParams() ScenarioParams {
	return ScenarioParams{
		Load:      1.0,
		HotProb:   0.3,
		HotDst:    0,
		BurstProb: 0.2,
		IdleLoad:  0.1,
	}
}

// Scenario is a named, parameterizable traffic pattern.
type Scenario struct {
	Name        string
	Description string
	New         func(p ScenarioParams) Traffic
	// LoadAware marks scenarios that consume ScenarioParams.Load
	// themselves; the rest inject at every input, and Traffic thins
	// them to the offered load.
	LoadAware bool
}

// Traffic is the one rule by which a scenario meets an offered load:
// New(p), thinned to p.Load unless the scenario is LoadAware. Since
// Thinned(1, t) is t, a full load leaves every scenario as New builds
// it.
func (s Scenario) Traffic(p ScenarioParams) Traffic {
	t := s.New(p)
	if s.LoadAware {
		return t
	}
	return Thinned(p.Load, t)
}

var scenarios = []Scenario{
	{
		Name:        "uniform",
		Description: "every input sends to an independently uniform destination",
		New:         func(ScenarioParams) Traffic { return Uniform() },
	},
	{
		Name:        "bernoulli",
		Description: "each input offers with probability Load, uniform destination",
		New:         func(p ScenarioParams) Traffic { return Bernoulli(p.Load) },
		LoadAware:   true,
	},
	{
		Name:        "permutation",
		Description: "a fresh uniform permutation of destinations each wave",
		New:         func(ScenarioParams) Traffic { return RandomPermutation() },
	},
	{
		Name:        "bitreversal",
		Description: "input i sends to bit-reverse(i), adversarial for shuffles",
		New:         func(ScenarioParams) Traffic { return BitReversal() },
	},
	{
		Name:        "hotspot",
		Description: "each packet targets the hot output with probability HotProb",
		New:         func(p ScenarioParams) Traffic { return HotSpot(p.HotDst, p.HotProb) },
	},
	{
		Name:        "tornado",
		Description: "input i sends to (i + n/2) mod n, the half-offset permutation",
		New:         func(ScenarioParams) Traffic { return Tornado() },
	},
	{
		Name:        "transpose",
		Description: "address bits rotated by half the width (matrix transpose)",
		New:         func(ScenarioParams) Traffic { return Transpose() },
	},
	{
		Name:        "neighbor",
		Description: "input i sends to (i+1) mod n, nearest-neighbor streaming",
		New:         func(ScenarioParams) Traffic { return NearestNeighbor() },
	},
	{
		Name:        "bursty",
		Description: "on/off waves: Load with probability BurstProb, else IdleLoad",
		New:         func(p ScenarioParams) Traffic { return Bursty(p.BurstProb, p.Load, p.IdleLoad) },
		LoadAware:   true,
	},
}

// Scenarios returns the registry in declaration order (a copy).
func Scenarios() []Scenario {
	out := make([]Scenario, len(scenarios))
	copy(out, scenarios)
	return out
}

// ScenarioNames returns the registered names in declaration order.
func ScenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}

// LookupScenario finds a scenario by name.
func LookupScenario(name string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
