package engine

import "fmt"

// Kernel selects the executor RunWaves steers unbuffered waves with.
// The two kernels are byte-identical per trial stream — the bit-sliced
// one packs 64 trials into uint64 bit-planes and steers them with
// word-parallel boolean algebra (see internal/sim/bitfabric.go), the
// scalar one walks packets one by one — so the choice affects only
// throughput, never results. RunBuffered ignores it (the queued model
// has no bit-sliced form). Its text form is the kernel's name.
type Kernel uint8

const (
	// KernelAuto picks the bit-sliced kernel whenever the fabric
	// qualifies (Fabric.BitSliceable: the wiring is Baseline-equivalent)
	// and falls back to scalar. The default: zero value, zero
	// configuration.
	KernelAuto Kernel = iota
	// KernelScalar forces the one-packet-at-a-time kernel (the oracle
	// the bit-sliced kernel is verified against).
	KernelScalar
	// KernelBit forces the bit-sliced kernel; RunWaves fails when the
	// wiring is not Baseline-equivalent rather than silently degrading.
	KernelBit
)

// kernelNames holds the text form of every kernel, indexed by value.
var kernelNames = [...]string{"auto", "scalar", "bit"}

func (k Kernel) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return fmt.Sprintf("Kernel(%d)", uint8(k))
}

// UnmarshalText parses a kernel's name (the wire and flag spelling);
// "" is KernelAuto, and any other unknown name fails.
func (k *Kernel) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*k = KernelAuto
		return nil
	}
	for i, name := range kernelNames {
		if string(text) == name {
			*k = Kernel(i)
			return nil
		}
	}
	return fmt.Errorf(`engine: unknown kernel %q (want "auto", "scalar" or "bit")`, string(text))
}
