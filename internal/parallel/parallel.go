// Package parallel provides the bounded, deterministic fan-out
// primitive behind the experiment runner (its one caller outside tests:
// experiments.runAll): N independent jobs executed on at most W
// goroutines, with results collected in submission order.
//
// Determinism contract: a job must derive all of its randomness from its
// index (or from state pre-split by index before the fan-out). Under
// that contract the output is bit-for-bit identical for any worker
// count, including 1 — execution order never feeds back into results
// because results are written to the job's own slot and aggregated in
// index order, never completion order.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers clamps a requested parallelism to [1, n]: non-positive values
// mean GOMAXPROCS, and there is no point running more workers than jobs.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (GOMAXPROCS when workers <= 0) and returns the results in index
// order. The first error by index aborts the return value (remaining
// jobs still run to completion, so no goroutine outlives the call).
// With one worker or one job, fn runs inline on the caller's goroutine.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if fn == nil {
		return nil, fmt.Errorf("parallel: nil job function")
	}
	out := make([]T, n)
	errs := make([]error, n)
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
		return out, firstError(errs)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out, firstError(errs)
}

// firstError returns the lowest-index error, keeping the reported
// failure independent of scheduling.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
