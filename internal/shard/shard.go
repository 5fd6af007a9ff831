// Package shard is the module's one worker pool. The trial engine, the
// pairwise equivalence sweeps and the exhaustive census all split their
// work into numbered units and run them here, so the claim order, the
// per-worker scratch discipline and the choice of which error to report
// are decided once.
package shard

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls fn(u, sc) for every unit u in [0, units) across workers
// goroutines (<= 0 means GOMAXPROCS, never more than units) and returns
// the workers' scratches, one per worker, each built by scratch on its
// own goroutine. Workers claim units in index order from one shared
// counter, so the results a caller stores by unit index, or folds into
// per-worker scratch and merges exactly, are independent of the worker
// count.
//
// After a unit fails no new unit is claimed, and Run returns the error
// of the lowest failing unit. Every unit below it was already claimed
// and runs to completion, so that error is the same for any worker
// count. Cancelling ctx stops every worker at its next unit boundary (a
// unit is never interrupted by Run itself) and ctx.Err() is returned
// when no unit failed.
func Run[S any](ctx context.Context, workers, units int, scratch func() S, fn func(u int, sc S) error) ([]S, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, units)
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		lowest = units
		err    error
		wg     sync.WaitGroup
	)
	scs := make([]S, workers)
	for wk := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scs[wk] = scratch()
			for !failed.Load() && ctx.Err() == nil {
				u := int(next.Add(1)) - 1
				if u >= units {
					return
				}
				if uerr := fn(u, scs[wk]); uerr != nil {
					mu.Lock()
					if u < lowest {
						lowest, err = u, uerr
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return scs, ctx.Err()
}
