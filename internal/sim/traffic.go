package sim

import (
	"math/rand/v2"

	"minequiv/internal/bitops"
)

// Traffic generates one wave of destinations in place: after the call,
// dsts[i] is the destination of input terminal i, or -1 for an idle
// input. Writing into the caller's buffer keeps the hot wave loop
// allocation-free. All patterns in this package are pure functions of
// (dsts, rng), so one Traffic value may be shared by concurrent workers
// as long as each worker passes its own buffer and rng.
type Traffic func(dsts []int, rng *rand.Rand)

// Uniform sends one packet from every input to an independently uniform
// destination.
func Uniform() Traffic {
	return func(dsts []int, rng *rand.Rand) {
		n := len(dsts)
		if n&(n-1) == 0 {
			// Power-of-two fan-out (every MIN here): IntN reduces to one
			// masked Uint64 draw (math/rand/v2 uint64n), so drawing it
			// directly skips three call layers while consuming the same
			// stream — the wave loop spends a double-digit share of its
			// time in this loop, and the stream shape is contractual.
			mask := uint64(n - 1)
			for i := range dsts {
				dsts[i] = int(rng.Uint64() & mask)
			}
			return
		}
		for i := range dsts {
			dsts[i] = rng.IntN(n)
		}
	}
}

// Bernoulli offers a packet on each input with probability load, uniform
// destination.
func Bernoulli(load float64) Traffic {
	return func(dsts []int, rng *rand.Rand) {
		n := len(dsts)
		if n&(n-1) == 0 {
			mask := uint64(n - 1) // same masked-draw fast path as Uniform
			for i := range dsts {
				if rng.Float64() < load {
					dsts[i] = int(rng.Uint64() & mask)
				} else {
					dsts[i] = -1
				}
			}
			return
		}
		for i := range dsts {
			if rng.Float64() < load {
				dsts[i] = rng.IntN(n)
			} else {
				dsts[i] = -1
			}
		}
	}
}

// RandomPermutation draws a fresh uniform permutation per wave
// (Fisher-Yates in place over the destination buffer).
func RandomPermutation() Traffic {
	return func(dsts []int, rng *rand.Rand) {
		for i := range dsts {
			dsts[i] = i
		}
		for i := len(dsts) - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			dsts[i], dsts[j] = dsts[j], dsts[i]
		}
	}
}

// BitReversal sends input i to the bit-reversal of i — the classic
// adversarial pattern for shuffle-based networks.
func BitReversal() Traffic {
	return func(dsts []int, rng *rand.Rand) {
		w := bitops.Log2(uint64(len(dsts)))
		for i := range dsts {
			dsts[i] = int(bitops.Reverse(uint64(i), w))
		}
	}
}

// HotSpot sends each input's packet to a single hot output with the
// given probability, uniform otherwise.
func HotSpot(target int, p float64) Traffic {
	return func(dsts []int, rng *rand.Rand) {
		n := len(dsts)
		for i := range dsts {
			if rng.Float64() < p {
				dsts[i] = target % n
			} else {
				dsts[i] = rng.IntN(n)
			}
		}
	}
}

// Tornado sends input i to (i + n/2) mod n — the worst-case offset
// pattern borrowed from ring/torus evaluation, a fixed permutation that
// maximally separates source and destination halves.
func Tornado() Traffic {
	return func(dsts []int, rng *rand.Rand) {
		n := len(dsts)
		for i := range dsts {
			dsts[i] = (i + n/2) % n
		}
	}
}

// Transpose rotates the w address bits of each input by w/2: for even w
// this is the matrix-transpose pattern on a sqrt(n) x sqrt(n) index grid,
// the canonical adversary for blocking banyans.
func Transpose() Traffic {
	return func(dsts []int, rng *rand.Rand) {
		n := len(dsts)
		w := bitops.Log2(uint64(n))
		half := w / 2
		if half == 0 { // n <= 2: rotation degenerates to the identity
			for i := range dsts {
				dsts[i] = i
			}
			return
		}
		mask := uint64(n - 1)
		for i := range dsts {
			x := uint64(i)
			dsts[i] = int(((x << half) | (x >> (w - half))) & mask)
		}
	}
}

// NearestNeighbor sends input i to (i+1) mod n — minimal-distance
// streaming traffic.
func NearestNeighbor() Traffic {
	return func(dsts []int, rng *rand.Rand) {
		n := len(dsts)
		for i := range dsts {
			dsts[i] = (i + 1) % n
		}
	}
}

// Thinned gates an inner pattern by an offered-load factor: each input
// that the inner pattern makes busy stays busy with probability load,
// else idles. Composing Thinned(load, pattern) is how full-injection
// patterns (uniform, tornado, transpose, ...) drive the buffered model
// at a chosen load. Thinned(1, p) is p itself.
func Thinned(load float64, inner Traffic) Traffic {
	if load >= 1 {
		return inner
	}
	return func(dsts []int, rng *rand.Rand) {
		inner(dsts, rng)
		for i := range dsts {
			if dsts[i] >= 0 && rng.Float64() >= load {
				dsts[i] = -1
			}
		}
	}
}

// Bursty models on/off sources at wave granularity: with probability
// burstProb a wave is a burst (every input offers with probability
// burstLoad), otherwise the fabric idles at idleLoad. Destinations are
// uniform. Each wave draws its phase independently, so trials stay
// independent and the pattern is safe to shard across engine workers;
// the bimodal offered load is what distinguishes it from a Bernoulli
// pattern with the same mean.
func Bursty(burstProb, burstLoad, idleLoad float64) Traffic {
	return func(dsts []int, rng *rand.Rand) {
		load := idleLoad
		if rng.Float64() < burstProb {
			load = burstLoad
		}
		n := len(dsts)
		for i := range dsts {
			if rng.Float64() < load {
				dsts[i] = rng.IntN(n)
			} else {
				dsts[i] = -1
			}
		}
	}
}
