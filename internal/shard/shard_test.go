package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// workerCounts includes 0, which means GOMAXPROCS.
var workerCounts = []int{0, 1, 2, 3, 8, 64}

// TestRunCoversEveryUnitOnce: every unit runs exactly once, and one
// scratch comes back per worker, including workers > units and units = 0.
func TestRunCoversEveryUnitOnce(t *testing.T) {
	for _, units := range []int{0, 1, 5, 100} {
		for _, workers := range workerCounts {
			runs := make([]atomic.Int32, units)
			var built atomic.Int32
			scs, err := Run(context.Background(), workers, units,
				func() *int { built.Add(1); return new(int) },
				func(u int, sc *int) error {
					runs[u].Add(1)
					*sc++
					return nil
				})
			if err != nil {
				t.Fatalf("units=%d workers=%d: %v", units, workers, err)
			}
			for u := range runs {
				if n := runs[u].Load(); n != 1 {
					t.Fatalf("units=%d workers=%d: unit %d ran %d times", units, workers, u, n)
				}
			}
			want := workers
			if want == 0 {
				want = runtime.GOMAXPROCS(0)
			}
			if want = min(want, units); len(scs) != want || int(built.Load()) != want {
				t.Fatalf("units=%d workers=%d: %d scratches returned, %d built, want %d",
					units, workers, len(scs), built.Load(), want)
			}
			total := 0
			for _, sc := range scs {
				total += *sc
			}
			if total != units {
				t.Fatalf("units=%d workers=%d: scratches counted %d units", units, workers, total)
			}
		}
	}
}

// TestRunLowestFailingUnitWins: unit 9 fails at once and unit 5 only
// after a delay, yet every worker count reports unit 5's error, because
// unit 5 was claimed before unit 9 and runs to completion.
func TestRunLowestFailingUnitWins(t *testing.T) {
	for _, workers := range workerCounts {
		_, err := Run(context.Background(), workers, 20,
			func() struct{} { return struct{}{} },
			func(u int, _ struct{}) error {
				switch u {
				case 5:
					time.Sleep(20 * time.Millisecond)
					return fmt.Errorf("unit %d", u)
				case 9:
					return fmt.Errorf("unit %d", u)
				}
				return nil
			})
		if err == nil || err.Error() != "unit 5" {
			t.Fatalf("workers=%d: got %v, want unit 5's error", workers, err)
		}
	}
}

// TestRunCancelled: a cancelled context claims no unit and returns
// ctx.Err().
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range workerCounts {
		var ran atomic.Int32
		_, err := Run(ctx, workers, 100,
			func() struct{} { return struct{}{} },
			func(int, struct{}) error { ran.Add(1); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d units ran under a cancelled context", workers, ran.Load())
		}
	}
}
