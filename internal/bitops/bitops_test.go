package bitops

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		w    int
		want uint64
	}{
		{-1, 0}, {0, 0}, {1, 1}, {2, 3}, {3, 7}, {8, 255},
		{63, 1<<63 - 1}, {64, ^uint64(0)}, {70, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.w); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.w, got, c.want)
		}
	}
}

func TestBitSetFlip(t *testing.T) {
	x := uint64(0b1010)
	if Bit(x, 0) != 0 || Bit(x, 1) != 1 || Bit(x, 2) != 0 || Bit(x, 3) != 1 {
		t.Fatalf("Bit readings wrong for %b", x)
	}
	if got := SetBit(x, 0, 1); got != 0b1011 {
		t.Errorf("SetBit(1010,0,1) = %b", got)
	}
	if got := SetBit(x, 1, 0); got != 0b1000 {
		t.Errorf("SetBit(1010,1,0) = %b", got)
	}
	if got := SetBit(x, 1, 1); got != x {
		t.Errorf("SetBit same value changed input: %b", got)
	}
	if got := FlipBit(x, 3); got != 0b0010 {
		t.Errorf("FlipBit(1010,3) = %b", got)
	}
	if got := FlipBit(FlipBit(x, 2), 2); got != x {
		t.Errorf("FlipBit twice not identity: %b", got)
	}
}

// insertBit widens x by one bit, placing b at position i and shifting
// bits i and above left: the inverse DeleteBit is checked against.
func insertBit(x uint64, i int, b uint64) uint64 {
	return (x&^Mask(i))<<1 | (b&1)<<uint(i) | x&Mask(i)
}

func TestInsertDeleteBit(t *testing.T) {
	// Inserting then deleting at the same position is the identity.
	for x := uint64(0); x < 64; x++ {
		for i := 0; i < 7; i++ {
			for b := uint64(0); b < 2; b++ {
				ins := insertBit(x, i, b)
				if Bit(ins, i) != b {
					t.Fatalf("insertBit(%d,%d,%d): bit not set", x, i, b)
				}
				if got := DeleteBit(ins, i); got != x {
					t.Fatalf("DeleteBit(insertBit(%d,%d,%d)) = %d", x, i, b, got)
				}
			}
		}
	}
	if got := DeleteBit(0b1011, 1); got != 0b101 {
		t.Errorf("DeleteBit(1011,1) = %b", got)
	}
	if got := DeleteBit(0b1011, 3); got != 0b011 {
		t.Errorf("DeleteBit(1011,3) = %b", got)
	}
	if got := DeleteBit(0b1011, 0); got != 0b101 {
		t.Errorf("DeleteBit(1011,0) = %b", got)
	}
}

func TestRotations(t *testing.T) {
	// Perfect shuffle on 3 bits: (x2,x1,x0) -> (x1,x0,x2).
	cases := []struct{ x, want uint64 }{
		{0b000, 0b000}, {0b001, 0b010}, {0b010, 0b100}, {0b100, 0b001},
		{0b110, 0b101}, {0b111, 0b111},
	}
	for _, c := range cases {
		if got := RotLeft(c.x, 3); got != c.want {
			t.Errorf("RotLeft(%03b,3) = %03b, want %03b", c.x, got, c.want)
		}
		if got := RotRight(c.want, 3); got != c.x {
			t.Errorf("RotRight(%03b,3) = %03b, want %03b", c.want, got, c.x)
		}
	}
	// Width-1 and width-0 rotations are the identity.
	if RotLeft(1, 1) != 1 || RotRight(1, 1) != 1 || RotLeft(0, 0) != 0 {
		t.Error("degenerate rotations wrong")
	}
	// w rotations of w bits is the identity.
	for w := 1; w <= 10; w++ {
		x := uint64(0x2f) & Mask(w)
		y := x
		for i := 0; i < w; i++ {
			y = RotLeft(y, w)
		}
		if y != x {
			t.Errorf("w=%d: %d rotations != identity (got %b want %b)", w, w, y, x)
		}
	}
}

// rotLeftK and rotRightK rotate only the low k bits of x, leaving bits k
// and above untouched: the k-subshuffle sigma_k and its inverse, built
// from RotLeft and RotRight on a k-bit field.
func rotLeftK(x uint64, w, k int) uint64 {
	if k > w {
		k = w
	}
	return x&(Mask(w)&^Mask(k)) | RotLeft(x&Mask(k), k)
}

func rotRightK(x uint64, w, k int) uint64 {
	if k > w {
		k = w
	}
	return x&(Mask(w)&^Mask(k)) | RotRight(x&Mask(k), k)
}

func TestRotK(t *testing.T) {
	// sigma_2 on 4 bits touches only bits 0..1.
	x := uint64(0b1101)
	if got := rotLeftK(x, 4, 2); got != 0b1110 {
		t.Errorf("rotLeftK(1101,4,2) = %04b", got)
	}
	if got := rotRightK(0b1110, 4, 2); got != x {
		t.Errorf("rotRightK(1110,4,2) = %04b", got)
	}
	// k = w degenerates to a full rotation.
	if rotLeftK(x, 4, 4) != RotLeft(x, 4) {
		t.Error("rotLeftK(k=w) != RotLeft")
	}
	// k > w is clamped.
	if rotLeftK(x, 4, 9) != RotLeft(x, 4) {
		t.Error("rotLeftK(k>w) != RotLeft")
	}
	// k = 1 and k = 0 are identities.
	if rotLeftK(x, 4, 1) != x || rotLeftK(x, 4, 0) != x {
		t.Error("rotLeftK small k not identity")
	}
}

// swapBits exchanges bits i and j of x through Bit and SetBit.
func swapBits(x uint64, i, j int) uint64 {
	bi, bj := Bit(x, i), Bit(x, j)
	return SetBit(SetBit(x, i, bj), j, bi)
}

func TestSwapBits(t *testing.T) {
	if got := swapBits(0b0001, 0, 3); got != 0b1000 {
		t.Errorf("swapBits(0001,0,3) = %04b", got)
	}
	if got := swapBits(0b1001, 0, 3); got != 0b1001 {
		t.Errorf("swapBits equal bits changed value: %04b", got)
	}
	if got := swapBits(0b0101, 2, 2); got != 0b0101 {
		t.Errorf("swapBits(i==j) changed value: %04b", got)
	}
}

func TestReverse(t *testing.T) {
	cases := []struct {
		x    uint64
		w    int
		want uint64
	}{
		{0b001, 3, 0b100}, {0b110, 3, 0b011}, {0b101, 3, 0b101},
		{0b0001, 4, 0b1000}, {1, 1, 1}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := Reverse(c.x, c.w); got != c.want {
			t.Errorf("Reverse(%b,%d) = %b, want %b", c.x, c.w, got, c.want)
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	if got := Tuple(5, 4); got != "(0,1,0,1)" {
		t.Errorf("Tuple(5,4) = %q", got)
	}
	if got := Tuple(0, 3); got != "(0,0,0)" {
		t.Errorf("Tuple(0,3) = %q", got)
	}
	// Reading the digits back, most significant first, recovers x.
	for x := uint64(0); x < 32; x++ {
		s := Tuple(x, 5)
		var y uint64
		digits := 0
		for _, c := range s {
			if c == '0' || c == '1' {
				y = y<<1 | uint64(c-'0')
				digits++
			}
		}
		if y != x || digits != 5 {
			t.Errorf("Tuple(%d,5) = %q reads back as %d (%d digits)", x, s, y, digits)
		}
	}
}

func TestLog2(t *testing.T) {
	for i := 0; i < 30; i++ {
		if got := Log2(1 << uint(i)); got != i {
			t.Errorf("Log2(2^%d) = %d", i, got)
		}
	}
	for _, bad := range []uint64{0, 3, 5, 6, 7, 12, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Log2(%d) did not panic", bad)
				}
			}()
			Log2(bad)
		}()
	}
	if IsPow2(0) || IsPow2(3) || !IsPow2(1) || !IsPow2(1024) {
		t.Error("IsPow2 wrong")
	}
}

// Property: RotLeft and RotRight are inverse bijections on w-bit values.
func TestRotInverseProperty(t *testing.T) {
	f := func(x uint64, wRaw uint8) bool {
		w := int(wRaw%16) + 1
		x &= Mask(w)
		return RotRight(RotLeft(x, w), w) == x && RotLeft(RotRight(x, w), w) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Reverse is an involution.
func TestReverseInvolution(t *testing.T) {
	f := func(x uint64, wRaw uint8) bool {
		w := int(wRaw%20) + 1
		x &= Mask(w)
		return Reverse(Reverse(x, w), w) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwapInvolution(t *testing.T) {
	f := func(x uint64, iRaw, jRaw uint8) bool {
		i, j := int(iRaw%16), int(jRaw%16)
		return swapBits(swapBits(x, i, j), i, j) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertDeleteProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for trial := 0; trial < 2000; trial++ {
		w := rng.IntN(20) + 1
		x := rng.Uint64() & Mask(w)
		i := rng.IntN(w + 1)
		b := rng.Uint64() & 1
		ins := insertBit(x, i, b)
		if DeleteBit(ins, i) != x {
			t.Fatalf("round trip failed: x=%b i=%d b=%d", x, i, b)
		}
		// Deleting a bit then reinserting the deleted value restores x.
		j := i % w
		if insertBit(DeleteBit(x, j), j, Bit(x, j)) != x {
			t.Fatalf("delete/insert failed: x=%b i=%d", x, j)
		}
	}
}

// bitModel holds a word as 64 separate bits, bit i at index i: the
// per-bit reference the word-level functions are checked against.
type bitModel [64]bool

func toModel(x uint64) bitModel {
	var m bitModel
	for i := range m {
		m[i] = x>>uint(i)&1 == 1
	}
	return m
}

func (m bitModel) word() uint64 {
	var x uint64
	for i, b := range m {
		if b {
			x |= uint64(1) << uint(i)
		}
	}
	return x
}

// TestAgainstBitModel checks every function of the package except
// Transpose64 against bitModel: every bit position i in [0, 63] and
// every width w in [0, 64], on 0, all ones and seeded words.
func TestAgainstBitModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 0))
	xs := []uint64{0, ^uint64(0)}
	for k := 0; k < 16; k++ {
		xs = append(xs, rng.Uint64())
	}
	for _, x := range xs {
		m := toModel(x)
		for i := 0; i < 64; i++ {
			var bit uint64
			if m[i] {
				bit = 1
			}
			if got := Bit(x, i); got != bit {
				t.Fatalf("Bit(%#x,%d) = %d, want %d", x, i, got, bit)
			}
			for b := uint64(0); b < 2; b++ {
				e := m
				e[i] = b == 1
				if got := SetBit(x, i, b); got != e.word() {
					t.Fatalf("SetBit(%#x,%d,%d) = %#x, want %#x", x, i, b, got, e.word())
				}
			}
			f := m
			f[i] = !f[i]
			if got := FlipBit(x, i); got != f.word() {
				t.Fatalf("FlipBit(%#x,%d) = %#x, want %#x", x, i, got, f.word())
			}
			// Bits above i move down one place; the top bit becomes 0.
			var d bitModel
			for j := 0; j < 63; j++ {
				if j < i {
					d[j] = m[j]
				} else {
					d[j] = m[j+1]
				}
			}
			if got := DeleteBit(x, i); got != d.word() {
				t.Fatalf("DeleteBit(%#x,%d) = %#x, want %#x", x, i, got, d.word())
			}
		}
		for w := 0; w <= 64; w++ {
			var mask, rl, rr, rev bitModel
			var tuple strings.Builder
			tuple.WriteByte('(')
			for j := 0; j < w; j++ {
				mask[j] = true
				rl[j] = m[(j+w-1)%w]
				rr[j] = m[(j+1)%w]
				rev[j] = m[w-1-j]
				if m[w-1-j] {
					tuple.WriteByte('1')
				} else {
					tuple.WriteByte('0')
				}
				if j < w-1 {
					tuple.WriteByte(',')
				}
			}
			tuple.WriteByte(')')
			if got := Mask(w); got != mask.word() {
				t.Fatalf("Mask(%d) = %#x, want %#x", w, got, mask.word())
			}
			if got := RotLeft(x, w); got != rl.word() {
				t.Fatalf("RotLeft(%#x,%d) = %#x, want %#x", x, w, got, rl.word())
			}
			if got := RotRight(x, w); got != rr.word() {
				t.Fatalf("RotRight(%#x,%d) = %#x, want %#x", x, w, got, rr.word())
			}
			if got := Reverse(x, w); got != rev.word() {
				t.Fatalf("Reverse(%#x,%d) = %#x, want %#x", x, w, got, rev.word())
			}
			if got := Tuple(x, w); got != tuple.String() {
				t.Fatalf("Tuple(%#x,%d) = %q, want %q", x, w, got, tuple.String())
			}
		}
		ones, top := 0, -1
		for j, b := range m {
			if b {
				ones++
				top = j
			}
		}
		checkLog2(t, x, ones == 1, top)
	}
	for i := 0; i < 64; i++ {
		checkLog2(t, uint64(1)<<uint(i), true, i)
	}
	// The documented edges of Mask.
	for _, w := range []int{-64, -1, 0} {
		if got := Mask(w); got != 0 {
			t.Errorf("Mask(%d) = %#x, want 0", w, got)
		}
	}
	for _, w := range []int{64, 65, 1000} {
		if got := Mask(w); got != ^uint64(0) {
			t.Errorf("Mask(%d) = %#x, want all ones", w, got)
		}
	}
}

// checkLog2 checks IsPow2 and Log2 on x, a power of two (with its one
// set bit at position top) iff pow2; Log2 must panic on any other x.
func checkLog2(t *testing.T, x uint64, pow2 bool, top int) {
	t.Helper()
	if got := IsPow2(x); got != pow2 {
		t.Fatalf("IsPow2(%#x) = %v, want %v", x, got, pow2)
	}
	defer func() {
		if r := recover(); (r != nil) == pow2 {
			t.Fatalf("Log2(%#x): panic %v, power of two %v", x, r, pow2)
		}
	}()
	if got := Log2(x); got != top {
		t.Fatalf("Log2(%#x) = %d, want %d", x, got, top)
	}
}

// TestTranspose64: reference bit-by-bit transpose, involution, and a
// randomized property sweep.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	for trial := 0; trial < 200; trial++ {
		var a, orig [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		orig = a
		Transpose64(&a)
		for i := 0; i < 64; i++ {
			for j := 0; j < 64; j++ {
				if Bit(a[i], j) != Bit(orig[j], i) {
					t.Fatalf("trial %d: transposed[%d] bit %d = %d, want orig[%d] bit %d = %d",
						trial, i, j, Bit(a[i], j), j, i, Bit(orig[j], i))
				}
			}
		}
		Transpose64(&a)
		if a != orig {
			t.Fatalf("trial %d: transpose is not an involution", trial)
		}
	}
}
