package sim

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// Tolerances of the distribution tests below. Every test runs at a
// fixed seed, so it passes or fails the same way on every run; the
// bounds say how far from the model a correct sampler may land.
const (
	// zTol bounds a standardized deviation |observed − expected|/σ.
	// One normal deviate exceeds 5 with probability 5.7e-7.
	zTol = 5
	// chiTol bounds a chi-square statistic with k degrees of freedom
	// by k + chiTol·sqrt(2k), five standard deviations above its mean.
	chiTol = 5
)

// gapGolden pins gap-table integers as literals: a platform that
// computes (1−r)^(j+1) differently — a fused multiply-add, an x87
// intermediate, a library power — fails here before it moves a
// result digest. Entries are cum[0], cum[1], cum[31] and cum[63].
var gapGolden = []struct {
	rate float64
	cum  [4]uint64
}{
	{0x1p-53, [4]uint64{1, 2, 32, 64}},
	{0.01, [4]uint64{90071992547410, 179243265169346, 2477156912999541, 4273046964006267}},
	{1.0 / 3, [4]uint64{3002399751580330, 5003999585967217, 9007178377674212, 9007199254692603}},
	{0.5, [4]uint64{1 << 52, 3 << 51, 1<<53 - 1<<21, 1 << 53}},
	{1 - 0x1p-53, [4]uint64{1<<53 - 1, 1 << 53, 1 << 53, 1 << 53}},
	{1, [4]uint64{1 << 53, 1 << 53, 1 << 53, 1 << 53}},
	// The combined switch rate of dead 0.02, stuck 0.03.
	{0.02 + float64((1-0.02)*0.03), [4]uint64{444955643184205, 867930477595110, 7226790632357646, 8655274669416814}},
}

func TestGapTableGolden(t *testing.T) {
	for _, gg := range gapGolden {
		var g gapTable
		g.set(gg.rate)
		got := [4]uint64{g.cum[0], g.cum[1], g.cum[31], g.cum[63]}
		if got != gg.cum {
			t.Errorf("rate %v: cum[0,1,31,63] = %v, want %v", gg.rate, got, gg.cum)
		}
	}
}

// TestGapTableExact checks every entry of the float-built table against
// ceil((1 − (1−r)^(j+1))·2^53) computed in 256-bit arithmetic, within
// 64 units (the rounding of 64 chained products), and that each table
// is nondecreasing and at most 2^53. It also checks the cache: a state
// resampled under a new rate rebuilds its table.
func TestGapTableExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	rs := append([]float64{1.0 / 3, 0.999, 0.02 + float64((1-0.02)*0.03)}, edgeRates...)
	for i := 0; i < 100; i++ {
		rs = append(rs, rng.Float64(), rng.Float64()/1024)
	}
	const prec = 256
	scale := new(big.Float).SetPrec(prec).SetMantExp(big.NewFloat(1), 53)
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	for _, r := range rs {
		var g gapTable
		g.set(r)
		keep := new(big.Float).SetPrec(prec).Sub(one, new(big.Float).SetPrec(prec).SetFloat64(r))
		p := new(big.Float).SetPrec(prec).SetInt64(1)
		for j, c := range g.cum {
			p.Mul(p, keep)
			x := new(big.Float).SetPrec(prec).Sub(one, p)
			x.Mul(x, scale)
			want, acc := x.Int(nil)
			if acc == big.Below {
				want.Add(want, big.NewInt(1))
			}
			if d := new(big.Int).Sub(new(big.Int).SetUint64(c), want); d.CmpAbs(big.NewInt(64)) > 0 {
				t.Fatalf("rate %v: cum[%d] = %d, exact %v", r, j, c, want)
			}
			if c > 1<<53 || j > 0 && c < g.cum[j-1] {
				t.Fatalf("rate %v: cum[%d] = %d out of order", r, j, c)
			}
		}
	}
	fs := NewFaultState(4)
	fs.Resample(FaultPlan{LinkDownRate: 1}, rand.New(rand.NewPCG(1, 1)))
	fs.Resample(FaultPlan{LinkDownRate: 0x1p-53}, rand.New(rand.NewPCG(1, 1)))
	if len(fs.links) != 0 || fs.linkGaps.cum[0] != 1 {
		t.Fatalf("rate 2^-53 after rate 1: %d links set, cum[0] = %d", len(fs.links), fs.linkGaps.cum[0])
	}
}

// hitCounter tallies realized random faults over many trials of one
// plan on a fresh state at a fixed seed. Hits are read off the sparse
// index, so a test sees exactly what Resample recorded.
type hitCounter struct {
	fs                   *FaultState
	switchHits, linkHits []int // per element, over all trials
	dead, stuck0, stuck1 int
}

func countHits(stages, trials int, p FaultPlan, seed uint64) *hitCounter {
	fs := NewFaultState(stages)
	c := &hitCounter{fs: fs, switchHits: make([]int, len(fs.mode)), linkHits: make([]int, len(fs.linkDown))}
	rng := rand.New(rand.NewPCG(seed, 7))
	for trial := 0; trial < trials; trial++ {
		fs.Resample(p, rng)
		for _, i := range fs.switches {
			c.switchHits[i]++
			switch fs.mode[i] {
			case switchDead:
				c.dead++
			case switchStuck0:
				c.stuck0++
			case switchStuck1:
				c.stuck1++
			}
		}
		for _, i := range fs.links {
			c.linkHits[i]++
		}
	}
	return c
}

// zScore is the standardized deviation of a Binomial(n, p) count.
func zScore(count, n int, p float64) float64 {
	return (float64(count) - float64(n)*p) / math.Sqrt(float64(n)*p*(1-p))
}

// checkFrequencies checks per-element hit counts against Binomial(trials,
// r): every element within zTol, and their pooled chi-square within
// chiTol of its degrees of freedom.
func checkFrequencies(t *testing.T, what string, hits []int, trials int, r float64) {
	t.Helper()
	chi := 0.0
	for i, h := range hits {
		z := zScore(h, trials, r)
		if math.Abs(z) > zTol {
			t.Fatalf("%s: element %d hit %d times in %d trials at rate %v (z = %.1f)", what, i, h, trials, r, z)
		}
		chi += z * z
	}
	k := float64(len(hits))
	if chi > k+chiTol*math.Sqrt(2*k) {
		t.Fatalf("%s: per-element chi-square %.1f over %d elements at rate %v", what, chi, len(hits), r)
	}
}

// TestFaultHitFrequency: each element is hit with probability r, at a
// rate where most blocks are empty, one where a block usually holds a
// hit, and one with several hits per block.
func TestFaultHitFrequency(t *testing.T) {
	for _, tc := range []struct {
		r      float64
		trials int
	}{{0.004, 40000}, {0.05, 8000}, {0.3, 2000}} {
		c := countHits(7, tc.trials, FaultPlan{SwitchDeadRate: tc.r, LinkDownRate: tc.r}, 1)
		checkFrequencies(t, fmt.Sprintf("switches r=%v", tc.r), c.switchHits, tc.trials, tc.r)
		checkFrequencies(t, fmt.Sprintf("links r=%v", tc.r), c.linkHits, tc.trials, tc.r)
	}
}

// TestFaultCountBinomial: the number of faults a trial realizes follows
// Binomial(elements, r). Its sample mean must lie within zTol standard
// errors of elements·r, and its sample variance within zTol standard
// errors (≈ sqrt(2/trials) relative) of elements·r·(1−r).
func TestFaultCountBinomial(t *testing.T) {
	const stages, trials = 7, 20000
	for _, tc := range []struct {
		plan FaultPlan
		r    float64
		n    int
		link bool
	}{
		{FaultPlan{LinkDownRate: 0.05}, 0.05, 7 * 128, true},
		{FaultPlan{LinkDownRate: 0.5}, 0.5, 7 * 128, true},
		{FaultPlan{SwitchDeadRate: 0.02, SwitchStuckRate: 0.03}, 0.02 + 0.98*0.03, 7 * 64, false},
	} {
		fs := NewFaultState(stages)
		rng := rand.New(rand.NewPCG(2, 3))
		var sum, sumSq float64
		for trial := 0; trial < trials; trial++ {
			fs.Resample(tc.plan, rng)
			k := float64(len(fs.switches))
			if tc.link {
				k = float64(len(fs.links))
			}
			sum += k
			sumSq += k * k
		}
		mean := sum / trials
		variance := (sumSq - sum*mean) / (trials - 1)
		wantMean := float64(tc.n) * tc.r
		wantVar := wantMean * (1 - tc.r)
		if z := (mean - wantMean) / math.Sqrt(wantVar/trials); math.Abs(z) > zTol {
			t.Errorf("%+v: mean count %.3f, binomial %.3f (z = %.1f)", tc.plan, mean, wantMean, z)
		}
		if rel := variance/wantVar - 1; math.Abs(rel) > zTol*math.Sqrt(2.0/trials) {
			t.Errorf("%+v: count variance %.3f, binomial %.3f (%.1f%% off)", tc.plan, variance, wantVar, 100*rel)
		}
	}
}

// TestFaultKindSplit: a switch is dead with probability d and stuck
// with (1−d)·s, so a hit is dead with probability d/q; a stuck switch
// is stuck on port 0 or 1 with a fair coin.
func TestFaultKindSplit(t *testing.T) {
	const d, s, trials = 0.1, 0.3, 4000
	c := countHits(7, trials, FaultPlan{SwitchDeadRate: d, SwitchStuckRate: s}, 3)
	q := d + (1-d)*s
	stuck := c.stuck0 + c.stuck1
	elems := trials * len(c.fs.mode)
	for _, chk := range []struct {
		what  string
		count int
		n     int
		p     float64
	}{
		{"dead among hits", c.dead, c.dead + stuck, d / q},
		{"stuck0 among stuck", c.stuck0, stuck, 0.5},
		{"dead per switch", c.dead, elems, d},
		{"stuck per switch", stuck, elems, (1 - d) * s},
	} {
		if z := zScore(chk.count, chk.n, chk.p); math.Abs(z) > zTol {
			t.Errorf("%s: %d of %d, want rate %v (z = %.1f)", chk.what, chk.count, chk.n, chk.p, z)
		}
	}
}

// TestFaultHitPositionUniform: over elements whose count is a multiple
// of 64, hits land uniformly on the 64 residues of their index. A walk
// that drops, repeats or shifts an element at a block edge piles hits
// on or takes them off a few residues. The rate is low, so most blocks
// are empty and walks stay aligned to the block grid for long stretches.
func TestFaultHitPositionUniform(t *testing.T) {
	const trials = 200000
	c := countHits(7, trials, FaultPlan{SwitchDeadRate: 0.002, LinkDownRate: 0.002}, 4)
	for _, side := range []struct {
		what string
		hits []int
	}{{"switches", c.switchHits}, {"links", c.linkHits}} {
		var res [64]int
		total := 0
		for i, h := range side.hits {
			res[i%64] += h
			total += h
		}
		want := float64(total) / 64
		chi := 0.0
		for _, r := range res {
			chi += (float64(r) - want) * (float64(r) - want) / want
		}
		if k := 63.0; chi > k+chiTol*math.Sqrt(2*k) {
			t.Errorf("%s: hit residues mod 64 chi-square %.1f over 63 dof: %v", side.what, chi, res)
		}
	}
}

// TestFaultEdgeRates: the edge rates of the Bernoulli test. Rate 2^-53
// hits nothing here (an element is hit once in 2^53 draws), rates 1
// and 1−2^-53 hit every element of every trial, and the middle rates
// land within zTol of their expected totals.
func TestFaultEdgeRates(t *testing.T) {
	const stages, trials = 6, 300
	for _, r := range edgeRates {
		c := countHits(stages, trials, FaultPlan{SwitchDeadRate: r, LinkDownRate: r}, 5)
		for _, side := range []struct {
			what string
			hits []int
		}{{"switches", c.switchHits}, {"links", c.linkHits}} {
			total := 0
			for _, h := range side.hits {
				total += h
			}
			n := trials * len(side.hits)
			switch {
			case r < 1e-9:
				if total != 0 {
					t.Errorf("rate %v %s: %d hits", r, side.what, total)
				}
			case r > 1-1e-9:
				if total != n {
					t.Errorf("rate %v %s: %d of %d elements hit", r, side.what, total, n)
				}
			default:
				if z := zScore(total, n, r); math.Abs(z) > zTol {
					t.Errorf("rate %v %s: %d of %d hit (z = %.1f)", r, side.what, total, n, z)
				}
			}
		}
	}
	// A stuck rate of 1 faults every switch; the dead share stays d.
	c := countHits(stages, trials, FaultPlan{SwitchDeadRate: 0.05, SwitchStuckRate: 1}, 6)
	n := trials * len(c.fs.mode)
	if c.dead+c.stuck0+c.stuck1 != n {
		t.Fatalf("stuck rate 1: %d of %d switches faulted", c.dead+c.stuck0+c.stuck1, n)
	}
	if z := zScore(c.dead, n, 0.05); math.Abs(z) > zTol {
		t.Errorf("stuck rate 1: %d of %d dead, want rate 0.05 (z = %.1f)", c.dead, n, z)
	}
}
