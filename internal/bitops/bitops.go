// Package bitops provides bit-field manipulation helpers for the binary
// cell and link labels used throughout the multistage interconnection
// network (MIN) literature and in Bermond & Fourneau's paper.
//
// Labels are w-bit unsigned values. Bit 0 is the least significant digit
// x_0 of the paper's tuple notation (x_{w-1}, ..., x_1, x_0). All
// functions treat bits above position w-1 as absent: inputs are masked,
// outputs never carry stray high bits.
package bitops

import (
	"fmt"
	"strings"
)

// Mask returns a value with the low w bits set: 0 for w <= 0 and all
// ones for w >= 64.
func Mask(w int) uint64 {
	if w <= 0 {
		return 0
	}
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// Bit returns bit i of x (0 or 1).
func Bit(x uint64, i int) uint64 {
	return (x >> uint(i)) & 1
}

// SetBit returns x with bit i forced to b (b must be 0 or 1).
func SetBit(x uint64, i int, b uint64) uint64 {
	if b&1 == 0 {
		return x &^ (uint64(1) << uint(i))
	}
	return x | (uint64(1) << uint(i))
}

// FlipBit returns x with bit i complemented.
func FlipBit(x uint64, i int) uint64 {
	return x ^ (uint64(1) << uint(i))
}

// DeleteBit narrows x by one bit: bit i is removed and bits above it
// shift right. DeleteBit(x, 0) == x>>1.
func DeleteBit(x uint64, i int) uint64 {
	hi := x >> uint(i+1) << uint(i)
	lo := x & Mask(i)
	return hi | lo
}

// RotLeft rotates the low w bits of x left by one position: the most
// significant of the w bits becomes bit 0. This is the perfect shuffle
// sigma of the paper restricted to w digits:
//
//	sigma(x_{w-1}, x_{w-2}, ..., x_0) = (x_{w-2}, ..., x_0, x_{w-1}).
//
// Bits of x at position >= w are discarded.
func RotLeft(x uint64, w int) uint64 {
	if w <= 1 {
		return x & Mask(w)
	}
	x &= Mask(w)
	return ((x << 1) | (x >> uint(w-1))) & Mask(w)
}

// RotRight rotates the low w bits of x right by one position: bit 0 moves
// to position w-1. This is the inverse perfect shuffle (unshuffle).
func RotRight(x uint64, w int) uint64 {
	if w <= 1 {
		return x & Mask(w)
	}
	x &= Mask(w)
	return (x >> 1) | ((x & 1) << uint(w-1))
}

// Reverse reverses the low w bits of x: bit i moves to position w-1-i.
// This is the bit-reversal permutation rho of the paper.
func Reverse(x uint64, w int) uint64 {
	var r uint64
	x &= Mask(w)
	for i := 0; i < w; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

// Tuple formats x as the paper's w-digit binary tuple, most significant
// digit first: Tuple(5, 4) == "(0,1,0,1)".
func Tuple(x uint64, w int) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := w - 1; i >= 0; i-- {
		if Bit(x, i) == 1 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
		if i > 0 {
			b.WriteByte(',')
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Transpose64 transposes a 64x64 bit matrix in place: after the call,
// bit j of word i equals bit i of word j of the original. The operation
// is an involution. This is the lane/plane pivot of the bit-sliced wave
// kernel (internal/sim): per-wave draws land row-major (one word per
// wave) and the kernel consumes them column-major (one lane word per
// cell), and one transpose converts a whole 64-wave block. Classic
// recursive block-swap (Hacker's Delight 7-3), 6 rounds of masked
// exchanges, allocation-free.
func Transpose64(a *[64]uint64) {
	for j, m := 32, uint64(0x00000000FFFFFFFF); j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := ((a[k] >> uint(j)) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
}

// Log2 returns the exact base-2 logarithm of x. It panics if x is not a
// positive power of two; network sizes in this library are always exact
// powers of two and a silent rounding would corrupt every stage count.
func Log2(x uint64) int {
	if x == 0 || x&(x-1) != 0 {
		panic(fmt.Sprintf("bitops: %d is not a power of two", x))
	}
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// IsPow2 reports whether x is a positive power of two.
func IsPow2(x uint64) bool {
	return x != 0 && x&(x-1) == 0
}
