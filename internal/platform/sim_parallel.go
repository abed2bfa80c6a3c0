package platform

import (
	"context"
	"fmt"
	"math"
	"sync"

	"crossmatch/internal/core"
)

// runParallel is the concurrent runtime behind Config.PlatformParallel:
// every platform feeds its own event sub-stream into its own Engine, on
// its own goroutine, over one shared runState — the paper's deployment
// model of independent platform services that share unoccupied workers
// through the hub. Cross-platform claims genuinely race here — the hub's
// per-worker claim words and the pools' locks arbitrate them — so
// results are valid but not bit-reproducible run to run.
//
// Any platform error cancels the remaining platforms, everything is
// joined, and the first failing platform (in platform-ID order) decides
// the returned error. Canceled platforms still settle what they hold,
// and the partially accumulated Result is always returned, so
// cancellation keeps RunSource's contract.
func runParallel(ctx context.Context, stream *core.Stream, factory MatcherFactory, cfg Config) (*Result, error) {
	s, err := newRunState(stream.Platforms(), factory, cfg, nil, true)
	if err != nil {
		return nil, err
	}
	s.nextID.Store(stream.MaxWorkerID())
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	engines := make([]*Engine, len(s.pids))
	errs := make([]error, len(s.pids))
	var wg sync.WaitGroup
	for i, pid := range s.pids {
		engines[i] = &Engine{s: s, wins: s.windowedFor(pid)}
		wg.Add(1)
		go func(i int, src EventSource) {
			defer wg.Done()
			eng := engines[i]
			err := eng.feed(ctx, src)
			if err == nil || canceled(ctx, err) {
				if serr := eng.advance(core.Time(math.MaxInt64)); serr != nil {
					err = serr
				}
			}
			errs[i] = err
			if err != nil {
				cancel()
			}
		}(i, StreamSource(stream.FilterPlatform(pid)))
	}
	wg.Wait()

	recycled := 0
	for _, eng := range engines {
		recycled += eng.recycled
	}
	res := s.finish(recycled)
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("platform %d: %w", s.pids[i], err)
		}
	}
	return res, nil
}
