package pipid

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"minequiv/internal/bitops"
	"minequiv/internal/perm"
)

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{0, 1, 2}); err != nil {
		t.Errorf("valid theta rejected: %v", err)
	}
	if _, err := New([]int{0, 0, 2}); err == nil {
		t.Error("duplicate theta accepted")
	}
	if _, err := New([]int{0, 3, 1}); err == nil {
		t.Error("out-of-range theta accepted")
	}
}

// compose returns the index permutation of "b after a" on symbols:
// first permute bits by a, then by b. Output bit j of the composite
// reads bit Theta_a[Theta_b[j]] of the original input.
func compose(a, b IndexPerm) IndexPerm {
	if a.W() != b.W() {
		panic(fmt.Sprintf("pipid: composing widths %d and %d", a.W(), b.W()))
	}
	theta := make([]int, a.W())
	for j := range theta {
		theta[j] = a.Theta[b.Theta[j]]
	}
	return IndexPerm{Theta: theta}
}

// isIdentity reports whether ip fixes every bit position.
func isIdentity(ip IndexPerm) bool { return ip.Equal(Identity(ip.W())) }

// rotLeftK rotates only the low k bits of x left by one, leaving bits k
// and above untouched: the bit-level reference for the k-subshuffle
// sigma_k.
func rotLeftK(x uint64, w, k int) uint64 {
	if k > w {
		k = w
	}
	hi := x & (bitops.Mask(w) &^ bitops.Mask(k))
	return hi | bitops.RotLeft(x&bitops.Mask(k), k)
}

// swapBits returns x with bits i and j exchanged: the bit-level
// reference for the k-butterfly, which exchanges bit 0 with bit k.
func swapBits(x uint64, i, j int) uint64 {
	if bitops.Bit(x, i) == bitops.Bit(x, j) {
		return x
	}
	return bitops.FlipBit(bitops.FlipBit(x, i), j)
}

func TestPerfectShuffleMatchesRotLeft(t *testing.T) {
	// The paper defines sigma as the circular left shift of the binary
	// representation; bitops.RotLeft is the reference implementation.
	for w := 1; w <= 8; w++ {
		s := PerfectShuffle(w)
		for x := uint64(0); x < 1<<uint(w); x++ {
			if got, want := s.Apply(x), bitops.RotLeft(x, w); got != want {
				t.Fatalf("w=%d: sigma(%b) = %b, want %b", w, x, got, want)
			}
		}
		// And the inverse matches RotRight.
		si := InverseShuffle(w)
		for x := uint64(0); x < 1<<uint(w); x++ {
			if got, want := si.Apply(x), bitops.RotRight(x, w); got != want {
				t.Fatalf("w=%d: sigma^-1(%b) = %b, want %b", w, x, got, want)
			}
		}
	}
}

func TestSubshuffleMatchesRotLeftK(t *testing.T) {
	// The reference on known values: sigma_2 on 4 bits touches only
	// bits 0..1, k = w is a full rotation, k > w is clamped, and k <= 1
	// is the identity.
	x := uint64(0b1101)
	if got := rotLeftK(x, 4, 2); got != 0b1110 {
		t.Errorf("rotLeftK(1101,4,2) = %04b", got)
	}
	if rotLeftK(x, 4, 4) != bitops.RotLeft(x, 4) || rotLeftK(x, 4, 9) != bitops.RotLeft(x, 4) {
		t.Error("rotLeftK(k>=w) != RotLeft")
	}
	if rotLeftK(x, 4, 1) != x || rotLeftK(x, 4, 0) != x {
		t.Error("rotLeftK small k not identity")
	}
	for w := 1; w <= 7; w++ {
		for k := 0; k <= w+1; k++ {
			s := Subshuffle(w, k)
			for x := uint64(0); x < 1<<uint(w); x++ {
				if got, want := s.Apply(x), rotLeftK(x, w, k); got != want {
					t.Fatalf("w=%d k=%d: sigma_k(%b) = %b, want %b", w, k, x, got, want)
				}
			}
		}
	}
	// sigma_w == sigma.
	if !Subshuffle(5, 5).Equal(PerfectShuffle(5)) {
		t.Error("sigma_w != sigma")
	}
	// sigma_1 and sigma_0 are identities.
	if !isIdentity(Subshuffle(5, 1)) || !isIdentity(Subshuffle(5, 0)) {
		t.Error("sigma_1 / sigma_0 not identity")
	}
}

func TestButterflyMatchesSwapBits(t *testing.T) {
	// The reference on known values.
	if got := swapBits(0b0001, 0, 3); got != 0b1000 {
		t.Errorf("swapBits(0001,0,3) = %04b", got)
	}
	if got := swapBits(0b1001, 0, 3); got != 0b1001 {
		t.Errorf("swapBits equal bits changed value: %04b", got)
	}
	if got := swapBits(0b0101, 2, 2); got != 0b0101 {
		t.Errorf("swapBits(i==j) changed value: %04b", got)
	}
	for w := 1; w <= 7; w++ {
		for k := 0; k < w; k++ {
			b := Butterfly(w, k)
			for x := uint64(0); x < 1<<uint(w); x++ {
				if got, want := b.Apply(x), swapBits(x, 0, k); got != want {
					t.Fatalf("w=%d k=%d: beta_k(%b) = %b, want %b", w, k, x, got, want)
				}
			}
		}
	}
	if !isIdentity(Butterfly(4, 0)) {
		t.Error("beta_0 not identity")
	}
	// Butterflies are involutions.
	for k := 1; k < 5; k++ {
		if !isIdentity(compose(Butterfly(5, k), Butterfly(5, k))) {
			t.Errorf("beta_%d not involutive", k)
		}
	}
}

func TestBitReversalMatchesReverse(t *testing.T) {
	for w := 1; w <= 8; w++ {
		r := BitReversal(w)
		for x := uint64(0); x < 1<<uint(w); x++ {
			if got, want := r.Apply(x), bitops.Reverse(x, w); got != want {
				t.Fatalf("w=%d: rho(%b) = %b, want %b", w, x, got, want)
			}
		}
		if !isIdentity(compose(r, r)) {
			t.Fatalf("w=%d: rho not involutive", w)
		}
	}
}

func TestComposeApplyAgreement(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for trial := 0; trial < 200; trial++ {
		w := rng.IntN(10) + 1
		a := Random(rng, w)
		b := Random(rng, w)
		x := rng.Uint64() & bitops.Mask(w)
		// Compose = "b after a" on symbols.
		if compose(a, b).Apply(x) != b.Apply(a.Apply(x)) {
			t.Fatal("compose order wrong")
		}
		// ToPerm is a homomorphism.
		if !compose(a, b).ToPerm().Equal(a.ToPerm().Compose(b.ToPerm())) {
			t.Fatal("ToPerm not a homomorphism")
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	for trial := 0; trial < 100; trial++ {
		w := rng.IntN(10) + 1
		a := Random(rng, w)
		if !isIdentity(compose(a, a.Inverse())) || !isIdentity(compose(a.Inverse(), a)) {
			t.Fatal("inverse law fails")
		}
		if !a.Inverse().ToPerm().Equal(a.ToPerm().Inverse()) {
			t.Fatal("ToPerm of inverse != inverse of ToPerm")
		}
	}
}

func TestPortSource(t *testing.T) {
	// sigma sends input bit 0 to output position 1 (left shift).
	if got := PerfectShuffle(4).PortSource(); got != 1 {
		t.Errorf("sigma PortSource = %d, want 1", got)
	}
	// sigma^{-1} sends bit 0 to the top position.
	if got := InverseShuffle(4).PortSource(); got != 3 {
		t.Errorf("sigma^-1 PortSource = %d, want 3", got)
	}
	// beta_k sends bit 0 to position k.
	for k := 1; k < 5; k++ {
		if got := Butterfly(5, k).PortSource(); got != k {
			t.Errorf("beta_%d PortSource = %d, want %d", k, got, k)
		}
	}
	// identity has the degenerate (Fig 5) port source 0.
	if got := Identity(4).PortSource(); got != 0 {
		t.Errorf("identity PortSource = %d, want 0", got)
	}
	// rho sends bit 0 to position w-1.
	if got := BitReversal(6).PortSource(); got != 5 {
		t.Errorf("rho PortSource = %d, want 5", got)
	}
}

func TestDetectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	for trial := 0; trial < 200; trial++ {
		w := rng.IntN(8) + 1
		a := Random(rng, w)
		got, ok := Detect(a.ToPerm())
		if !ok {
			t.Fatalf("w=%d: PIPID permutation not detected", w)
		}
		if !got.Equal(a) {
			t.Fatalf("w=%d: detected %v, want %v", w, got, a)
		}
	}
}

func TestDetectRejectsNonPIPID(t *testing.T) {
	// A transposition of symbols 0 and 1 on 8 symbols moves p[0] != 0.
	p := perm.Identity(8)
	p[0], p[1] = 1, 0
	if _, ok := Detect(p); ok {
		t.Error("symbol transposition detected as PIPID")
	}
	// x -> x+1 mod 8 is not PIPID.
	q, _ := perm.FromFunc(8, func(x uint64) uint64 { return (x + 1) % 8 })
	if _, ok := Detect(q); ok {
		t.Error("cyclic shift detected as PIPID")
	}
	// A permutation fixing 0 and unit vectors but scrambling elsewhere.
	r := perm.Identity(8)
	r[3], r[5] = 5, 3
	if _, ok := Detect(r); ok {
		t.Error("non-PIPID fixing units detected as PIPID")
	}
	// Non-power-of-two sizes are never PIPID.
	if _, ok := Detect(perm.Identity(6)); ok {
		t.Error("size-6 permutation detected as PIPID")
	}
	var empty perm.Perm
	if _, ok := Detect(empty); ok {
		t.Error("empty permutation detected as PIPID")
	}
}

func TestDetectExhaustiveSmall(t *testing.T) {
	// For w = 3 there are exactly 6 PIPID permutations among the 8! = 40320
	// permutations of 8 symbols; enumerate all theta and confirm detection
	// agrees with construction.
	all := All(3)
	if len(all) != 6 {
		t.Fatalf("All(3) returned %d permutations, want 6", len(all))
	}
	seen := map[string]bool{}
	for _, ip := range all {
		p := ip.ToPerm()
		got, ok := Detect(p)
		if !ok || !got.Equal(ip) {
			t.Fatalf("round trip failed for %v", ip)
		}
		seen[p.String()] = true
	}
	if len(seen) != 6 {
		t.Fatalf("All(3) produced %d distinct symbol permutations, want 6", len(seen))
	}
}

func TestAllCounts(t *testing.T) {
	want := map[int]int{0: 1, 1: 1, 2: 2, 3: 6, 4: 24, 5: 120}
	for w, count := range want {
		if got := len(All(w)); got != count {
			t.Errorf("len(All(%d)) = %d, want %d", w, got, count)
		}
	}
}

func TestString(t *testing.T) {
	// theta for sigma on 3 bits: theta = [2(for j=0), 0(j=1), 1(j=2)]
	s := PerfectShuffle(3)
	if got := s.String(); got != "[1 0 2]" {
		t.Errorf("sigma(3).String() = %q", got)
	}
	if got := Identity(2).String(); got != "[1 0]" {
		t.Errorf("id(2).String() = %q", got)
	}
}

func TestShuffleOrder(t *testing.T) {
	// sigma has order w on w bits.
	for w := 1; w <= 8; w++ {
		s := PerfectShuffle(w)
		acc := Identity(w)
		for i := 0; i < w; i++ {
			acc = compose(acc, s)
		}
		if !isIdentity(acc) {
			t.Errorf("sigma^%d != id on %d bits", w, w)
		}
		if w > 1 {
			acc = compose(Identity(w), s)
			for i := 1; i < w; i++ {
				if isIdentity(acc) {
					t.Errorf("sigma has order < %d on %d bits", w, w)
				}
				acc = compose(acc, s)
			}
		}
	}
}

func BenchmarkToPerm(b *testing.B) {
	s := PerfectShuffle(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ToPerm()
	}
}

func BenchmarkDetect(b *testing.B) {
	p := BitReversal(14).ToPerm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Detect(p); !ok {
			b.Fatal("detect failed")
		}
	}
}
