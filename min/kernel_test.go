package min

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestWithKernel: kernel selection is a pure performance knob — every
// kernel produces the identical WaveStats — and misuse fails loudly.
func TestWithKernel(t *testing.T) {
	nw := MustBuild(Omega, 5)
	ctx := context.Background()
	base, err := Simulate(ctx, nw, WithWaves(130), WithSeed(3), WithKernel(KernelScalar))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kernel{KernelAuto, KernelBit} {
		got, err := Simulate(ctx, nw, WithWaves(130), WithSeed(3), WithKernel(k))
		if err != nil {
			t.Fatalf("kernel %q: %v", k, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("kernel %q changed results:\n%+v\n%+v", k, got, base)
		}
	}
	if _, err := Simulate(ctx, nw, WithKernel(Kernel(42))); err == nil || !strings.Contains(err.Error(), "kernel") {
		t.Fatalf("out-of-range kernel: err = %v", err)
	}
	if _, err := SimulateBuffered(ctx, nw, WithKernel(KernelScalar)); err == nil || !strings.Contains(err.Error(), "WithKernel") {
		t.Fatalf("WithKernel on the buffered model: err = %v", err)
	}
}

// TestBufferedPolicyRange: an arbiter or lane policy outside its name
// table is refused, not run under some default.
func TestBufferedPolicyRange(t *testing.T) {
	nw := MustBuild(Omega, 3)
	ctx := context.Background()
	if _, err := SimulateBuffered(ctx, nw, WithCycles(10), WithArbiter(Arbiter(9))); err == nil || !strings.Contains(err.Error(), "arbiter") {
		t.Fatalf("out-of-range arbiter: err = %v", err)
	}
	if _, err := SimulateBuffered(ctx, nw, WithCycles(10), WithLaneSelect(LaneSelect(9))); err == nil || !strings.Contains(err.Error(), "lane") {
		t.Fatalf("out-of-range lane policy: err = %v", err)
	}
}

// TestSettingText checks every value of the three named settings: its
// String round-trips through UnmarshalText, "" parses to the default
// (the zero value), an unknown name fails, and a value past the name
// table prints its number and does not parse back.
func TestSettingText(t *testing.T) {
	checkSettingText(t, []Kernel{KernelAuto, KernelScalar, KernelBit}, "auto", "scalar", "bit")
	checkSettingText(t, []Arbiter{ArbiterRandom, ArbiterRoundRobin}, "random", "roundrobin")
	checkSettingText(t, []LaneSelect{LaneShortest, LaneByDst, LaneRandom}, "shortest", "bydst", "random")
}

func checkSettingText[T interface {
	~uint8
	String() string
}, P interface {
	*T
	UnmarshalText([]byte) error
}](t *testing.T, values []T, names ...string) {
	t.Helper()
	for i, v := range values {
		if int(v) != i {
			t.Errorf("%s has value %d, want %d", names[i], v, i)
		}
		if s := v.String(); s != names[i] {
			t.Errorf("value %d: String() = %q, want %q", v, s, names[i])
		}
		var got T
		if err := P(&got).UnmarshalText([]byte(v.String())); err != nil || got != v {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
	}
	got := values[len(values)-1]
	if err := P(&got).UnmarshalText(nil); err != nil || got != 0 {
		t.Errorf(`UnmarshalText("") = %v, %v; want the zero value %v`, got, err, values[0])
	}
	if err := P(&got).UnmarshalText([]byte("simd")); err == nil || !strings.Contains(err.Error(), `"simd"`) {
		t.Errorf(`UnmarshalText("simd") = %v; want an error naming it`, err)
	}
	past := T(len(values))
	if s := past.String(); !strings.Contains(s, fmt.Sprint(len(values))) {
		t.Errorf("value %d: String() = %q, want its number", past, s)
	}
	if err := P(&got).UnmarshalText([]byte(past.String())); err == nil {
		t.Errorf("UnmarshalText(%q) accepted a value past the table", past.String())
	}
}
