package engine

import "fmt"

// Kernel selects the executor RunWaves steers unbuffered waves with.
// The two kernels are byte-identical per trial stream — the bit-sliced
// one packs 64 trials into uint64 bit-planes and steers them with
// word-parallel boolean algebra (see internal/sim/bitfabric.go), the
// scalar one walks packets one by one — so the choice affects only
// throughput, never results. RunBuffered ignores it (the queued model
// has no bit-sliced form).
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

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelScalar:
		return "scalar"
	case KernelBit:
		return "bit"
	}
	return fmt.Sprintf("Kernel(%d)", uint8(k))
}

// ParseKernel maps the wire/flag spelling of a kernel choice ("auto",
// "scalar", "bit"; empty means auto) to its Kernel value.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "scalar":
		return KernelScalar, nil
	case "bit":
		return KernelBit, nil
	}
	return KernelAuto, fmt.Errorf(`engine: unknown kernel %q (want "auto", "scalar" or "bit")`, s)
}
