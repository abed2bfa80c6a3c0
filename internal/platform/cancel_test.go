package platform

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/online"
)

// canceler counts the requests the wrapped matchers see and cancels the
// run's context when the shared count reaches a threshold — a
// cancellation that lands mid-stream at a known point on every runtime.
type canceler struct {
	seen   *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c canceler) tick() {
	if c.seen.Add(1) == c.after {
		c.cancel()
	}
}

type cancelingMatcher struct {
	online.Matcher
	canceler
}

func (m cancelingMatcher) RequestArrives(r *core.Request, d *online.Decision) {
	m.tick()
	m.Matcher.RequestArrives(r, d)
}

// cancelingWindowed keeps a windowed matcher windowed through the wrap.
type cancelingWindowed struct {
	online.WindowedMatcher
	canceler
}

func (m cancelingWindowed) RequestArrives(r *core.Request, d *online.Decision) {
	m.tick()
	m.WindowedMatcher.RequestArrives(r, d)
}

// TestCancellationContract pins the cancellation contract of a stream
// run: it stops within a poll interval, returns the partial Result with
// an error wrapping ctx.Err(), and settles what it holds, so every request a
// matcher saw — including the ones BatchCOM was still buffering — has
// its decision in the Result. No goroutine outlives the call.
func TestCancellationContract(t *testing.T) {
	stream := multiStream(t, 3, 2400, 600, 29)
	cfg := Config{Seed: 1, ServiceTicks: 3}
	for _, after := range []int64{0, 500} {
		t.Run(fmt.Sprintf("sequential/after%d", after), func(t *testing.T) {
			base, err := FactoryConfigured(AlgBatchCOM, AlgConfig{MaxValue: stream.MaxValue(), Window: 8})
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen atomic.Int64
			factory := func(pid core.PlatformID, coop online.CoopView, rng *rand.Rand) online.Matcher {
				m, c := base(pid, coop, rng), canceler{seen: &seen, after: after, cancel: cancel}
				if wm, ok := m.(online.WindowedMatcher); ok {
					return cancelingWindowed{wm, c}
				}
				return cancelingMatcher{m, c}
			}
			if after == 0 {
				cancel() // already canceled: the run stops at its first poll
			}
			res, err := RunContext(ctx, stream, factory, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("no partial result returned")
			}
			if err := res.Validate(); err != nil {
				t.Fatal(err)
			}
			decided := 0
			for _, pr := range res.Platforms {
				decided += pr.Stats.Requests
			}
			if got := int(seen.Load()); decided != got {
				t.Fatalf("%d requests reached a matcher, %d have a decision in the partial result", got, decided)
			}
			if after > 0 && (decided < int(after) || decided == len(stream.Requests())) {
				t.Fatalf("%d of %d requests decided: the run did not stop mid-stream", decided, len(stream.Requests()))
			}
			// Give the count a moment to settle.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}
