// Package shard is the coordination core of the geo-sharded matching
// engine: a spatial partitioner that assigns every arrival event to the
// shard owning its grid cell (the same cells.Owner rendezvous hash the
// fleet router splits streams with, so in-process shards and comserve
// processes can never disagree about ownership), and a Coordinator
// whose sequence-number frontiers order cross-shard work so that a
// parallel sharded run stays bit-identical run to run.
//
// # The claim protocol
//
// Every event receives a global sequence number (its index in dispatch
// order) from a single dispatcher. Most events are local: a worker
// arrival touches only the shard owning its cell, and a request whose
// eligibility disk lies inside its shard's cells is matched entirely
// from local state. A boundary request — one whose disk reaches into
// cells owned by other shards — goes through an async claim protocol
// against its target shards:
//
//   - propose: the dispatcher stamps the request's sequence number into
//     its shard's boundary frontier (bf) at enqueue time, announcing to
//     every other shard that state older than this point must not be
//     overwritten yet.
//   - reserve: the owning shard's loop waits at the claim gate until
//     (a) no other shard holds an unresolved boundary event at or below
//     this sequence number, and (b) every target shard's progress
//     frontier (pend) has reached it — the targets have applied every
//     event ordered before the request and are parked by their own
//     local gates, so their waiting lists are exactly the deterministic
//     state an unsharded run would see at this point in the stream.
//   - commit/abort: the shard matches the request, committing any
//     cross-shard borrow through the target hub's per-worker atomic
//     claim word (the same CAS commit point cross-platform claims have
//     always used) — or aborts back to local-only matching if the gate
//     degrades. Resolving the boundary frontier releases the other
//     shards' gates.
//
// Non-boundary events flow in parallel, gated only by the cheap check
// that no unresolved boundary event orders before them; boundary
// events are an O(perimeter/area) band of the city, so the protocol's
// serial section shrinks as the city grows.
//
// Both wait conditions are stable: the dispatcher hands out strictly
// increasing sequence numbers, so once a gate opens for an event
// nothing can close it again. Deadlock freedom follows by induction on
// sequence numbers — the globally lowest blocked operation is always
// runnable.
//
// # Stall guard
//
// With a zero StallTimeout the gates wait forever and the run is fully
// deterministic (the offline default — an in-process shard cannot die).
// A positive StallTimeout arms a wall-clock watchdog per gate wait:
// when it fires, the waiter records the lagging target shards as
// failures on their internal/fault circuit breakers and proceeds
// degraded (local-only matching for claim gates). While a target's
// breaker is open, claim gates skip it outright until the virtual-time
// cooldown elapses. Degraded runs keep every matching valid — hub
// tables stay locked and the claim-word CAS still arbitrates — but
// forfeit bit-determinism, exactly like the serving fleet's failover
// mode.
package shard

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"crossmatch/internal/cells"
	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/geo"
	"crossmatch/internal/index"
	"crossmatch/internal/metrics"
)

// None is the frontier value of a shard with no unfinished (or no
// unresolved boundary) work: every gate comparison passes against it.
const None int64 = math.MaxInt64

// Partitioner maps locations to shard indices under the shared grid
// geometry and rendezvous hash. It memoizes cell ownership (a city's
// cell set is small and hot) and keeps per-call scratch, so it is NOT
// safe for concurrent use: exactly one dispatcher goroutine may call
// it — the same single-sequencer discipline the engine's determinism
// rests on anyway.
type Partitioner struct {
	names []string
	cell  float64
	cache map[cells.Key]int32
	seen  []bool
	// Boundary counts what AppendTargets classified, for observability.
	classified, boundary int64
}

// NewPartitioner returns a partitioner over n shards named by
// cells.Names (the canonical "s1".."sN" the fleet layer uses), with
// the given cell size (non-positive falls back to index.DefaultCell).
func NewPartitioner(n int, cellSize float64) *Partitioner {
	if cellSize <= 0 {
		cellSize = index.DefaultCell
	}
	return &Partitioner{
		names: cells.Names(n),
		cell:  cellSize,
		cache: make(map[cells.Key]int32, 1024),
		seen:  make([]bool, n),
	}
}

// Names returns the shard names backing the rendezvous assignment. The
// slice is owned by the partitioner and must not be mutated.
func (p *Partitioner) Names() []string { return p.names }

func (p *Partitioner) owner(k cells.Key) int {
	if v, ok := p.cache[k]; ok {
		return int(v)
	}
	v := cells.OwnerIndex(k, p.names)
	p.cache[k] = int32(v)
	return v
}

// ShardOf returns the shard owning the cell containing loc.
func (p *Partitioner) ShardOf(loc geo.Point) int {
	return p.owner(cells.Of(loc, p.cell))
}

// AppendTargets appends (deduped, ascending) the shards other than
// self that own a cell intersecting the disk of the given reach around
// loc — the claim-protocol target set of a request at loc whose
// eligible workers can be up to reach away. An empty result means the
// request is local: its whole eligibility disk lies in self's cells.
func (p *Partitioner) AppendTargets(dst []int, self int, loc geo.Point, reach float64) []int {
	p.classified++
	if len(p.names) <= 1 || reach <= 0 {
		return dst
	}
	lo := cells.Of(geo.Point{X: loc.X - reach, Y: loc.Y - reach}, p.cell)
	hi := cells.Of(geo.Point{X: loc.X + reach, Y: loc.Y + reach}, p.cell)
	for i := range p.seen {
		p.seen[i] = false
	}
	found := false
	r2 := reach * reach
	for cx := lo.CX; cx <= hi.CX; cx++ {
		for cy := lo.CY; cy <= hi.CY; cy++ {
			// Exact disk-rect test: clamp loc into the cell's rectangle
			// and compare the residual distance, so corner cells outside
			// the disk don't inflate the boundary band.
			dx := clampResidual(loc.X, float64(cx)*p.cell, p.cell)
			dy := clampResidual(loc.Y, float64(cy)*p.cell, p.cell)
			if dx*dx+dy*dy > r2 {
				continue
			}
			if o := p.owner(cells.Key{CX: cx, CY: cy}); o != self {
				p.seen[o] = true
				found = true
			}
		}
	}
	if !found {
		return dst
	}
	p.boundary++
	for i, b := range p.seen {
		if b {
			dst = append(dst, i)
		}
	}
	return dst
}

// clampResidual returns the distance from x to the interval
// [lo, lo+size] (zero when inside).
func clampResidual(x, lo, size float64) float64 {
	if x < lo {
		return lo - x
	}
	if x > lo+size {
		return x - lo - size
	}
	return 0
}

// Boundary reports how many of the classified request locations were
// boundary, and the total classified — the O(perimeter/area) band the
// scaling experiment records.
func (p *Partitioner) Boundary() (boundary, classified int64) {
	return p.boundary, p.classified
}

// Options configures a Coordinator.
type Options struct {
	// StallTimeout is the wall-clock watchdog on gate waits; zero (the
	// offline default) waits forever and keeps the run deterministic.
	StallTimeout time.Duration
	// Breaker configures the per-target circuit breakers guarding claim
	// gates (zero value = fault package defaults: 5 failures to open,
	// 60 virtual ticks cooldown).
	Breaker fault.BreakerConfig
	// Metrics, when non-nil, receives breaker transition counters and
	// short-circuit counts, exactly like the cooperation-path breakers.
	Metrics *metrics.Collector
}

// Grant is the outcome of a claim-gate wait.
type Grant struct {
	// OK is false only when the coordinator was closed mid-wait (the
	// run is shutting down); the event must not be processed.
	OK bool
	// Targets is the granted target subset: the shards whose state the
	// boundary event may scan and claim from. It can be smaller than
	// requested (breaker-skipped or stall-dropped targets) and empty in
	// full local-only degradation.
	Targets []int
	// Degraded is true when any requested target was dropped — the
	// abort path of the claim protocol for that target.
	Degraded bool
}

// Coordinator owns the per-shard sequence frontiers and gate waits of
// the claim protocol. All methods are safe for concurrent use by the
// shard loops and the dispatcher.
type Coordinator struct {
	n        int
	stall    time.Duration
	metrics  *metrics.Collector
	breakers []*fault.Breaker

	// pend[s] is the smallest sequence number among shard s's
	// unfinished events (None when drained); bf[s] the smallest among
	// its unresolved boundary events (None when none). minBF caches
	// min over bf — the one atomic load on the local-gate fast path.
	pend  []atomic.Int64
	bf    []atomic.Int64
	minBF atomic.Int64

	waiters atomic.Int32
	mu      sync.Mutex
	cond    *sync.Cond
	closed  atomic.Bool

	stalls atomic.Int64
}

// New returns a coordinator for n shards with all frontiers at None.
func New(n int, opt Options) *Coordinator {
	c := &Coordinator{
		n:       n,
		stall:   opt.StallTimeout,
		metrics: opt.Metrics,
		pend:    make([]atomic.Int64, n),
		bf:      make([]atomic.Int64, n),
	}
	c.cond = sync.NewCond(&c.mu)
	c.breakers = make([]*fault.Breaker, n)
	for i := range c.breakers {
		m := opt.Metrics
		c.breakers[i] = fault.NewBreaker(opt.Breaker, func(from, to fault.State) {
			switch to {
			case fault.Open:
				m.Add(metrics.BreakerOpened, 1)
			case fault.HalfOpen:
				m.Add(metrics.BreakerHalfOpened, 1)
			case fault.Closed:
				m.Add(metrics.BreakerClosed, 1)
			}
		})
	}
	for i := 0; i < n; i++ {
		c.pend[i].Store(None)
		c.bf[i].Store(None)
	}
	c.minBF.Store(None)
	return c
}

// wake broadcasts to gate waiters, if any. The atomic waiter count
// keeps the per-event fast path free of the coordinator mutex; the
// store-then-load ordering against the waiter's register-then-recheck
// (both sequentially consistent) closes the lost-wakeup window.
func (c *Coordinator) wake() {
	if c.waiters.Load() > 0 {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// SetPend publishes shard s's progress frontier: the sequence number
// of its oldest unfinished event, or None when it has drained. Called
// by the dispatcher when work lands on an idle shard and by the shard
// loop as it finishes each event.
func (c *Coordinator) SetPend(s int, seq int64) {
	c.pend[s].Store(seq)
	c.wake()
}

// SetBoundary publishes shard s's boundary frontier — the propose
// phase of the claim protocol when a boundary event is enqueued, and
// the resolve when one commits or aborts. Boundary events are rare, so
// this takes the coordinator mutex to refresh the cached minimum.
func (c *Coordinator) SetBoundary(s int, seq int64) {
	c.mu.Lock()
	c.bf[s].Store(seq)
	min := None
	for i := 0; i < c.n; i++ {
		if v := c.bf[i].Load(); v < min {
			min = v
		}
	}
	c.minBF.Store(min)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Close releases every gate; all subsequent and in-flight waits report
// closed. Used for shutdown and error propagation across shard loops.
func (c *Coordinator) Close() {
	c.closed.Store(true)
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Closed reports whether the coordinator has been closed.
func (c *Coordinator) Closed() bool { return c.closed.Load() }

// Stalls returns how many gate waits hit the stall watchdog.
func (c *Coordinator) Stalls() int64 { return c.stalls.Load() }

// wait blocks until pred holds, the coordinator closes, or the
// watchdog fires (timeout > 0). It reports whether pred held on exit.
func (c *Coordinator) wait(pred func() bool, timeout time.Duration) bool {
	if pred() {
		return true
	}
	var timedOut atomic.Bool
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			timedOut.Store(true)
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		defer t.Stop()
	}
	c.mu.Lock()
	c.waiters.Add(1)
	for !pred() && !c.closed.Load() && !timedOut.Load() {
		c.cond.Wait()
	}
	c.waiters.Add(-1)
	ok := pred()
	c.mu.Unlock()
	return ok
}

// WaitLocal gates shard self before processing its local event at seq:
// it returns once no shard holds an unresolved boundary event ordered
// at or before seq (self's own boundary queue is always ahead of seq —
// FIFO — so the cached global minimum decides in one atomic load). It
// reports false when the coordinator closed; with a stall watchdog it
// can also return true degraded — the caller proceeds, trading
// determinism for liveness exactly like the claim gate does.
func (c *Coordinator) WaitLocal(self int, seq int64) bool {
	if c.minBF.Load() > seq {
		return !c.closed.Load()
	}
	pred := func() bool { return c.minBF.Load() > seq }
	if !c.wait(pred, c.stall) {
		if c.closed.Load() {
			return false
		}
		// Watchdog fired with a boundary event still unresolved
		// elsewhere (a stalled shard). Proceed degraded.
		c.stalls.Add(1)
		c.metrics.Add(metrics.ShardStalls, 1)
	}
	return true
}

// WaitClaim runs the reserve phase for the boundary event at seq in
// shard self: it waits until no other shard holds an unresolved
// boundary event at or before seq and every granted target's progress
// frontier has reached seq. Targets whose breaker is open are skipped
// up front (short-circuit); targets still lagging when the watchdog
// fires are recorded as breaker failures and dropped. now is the
// event's virtual time — what breaker cooldowns are measured in.
func (c *Coordinator) WaitClaim(self int, seq int64, targets []int, now core.Time) Grant {
	if c.closed.Load() {
		return Grant{}
	}
	granted := make([]int, 0, len(targets))
	degraded := false
	for _, t := range targets {
		if c.breakers[t].Allow(now) {
			granted = append(granted, t)
		} else {
			degraded = true
			c.metrics.Add(metrics.BreakerShortCircuits, 1)
		}
	}
	pred := func() bool {
		for t := 0; t < c.n; t++ {
			if t != self && c.bf[t].Load() <= seq {
				return false
			}
		}
		for _, t := range granted {
			if c.pend[t].Load() < seq {
				return false
			}
		}
		return true
	}
	if c.wait(pred, c.stall) {
		for _, t := range granted {
			c.breakers[t].Success()
		}
		return Grant{OK: !c.closed.Load(), Targets: granted, Degraded: degraded}
	}
	if c.closed.Load() {
		return Grant{}
	}
	// Reserve timed out: abort the lagging targets (breaker failure),
	// keep the caught-up ones, and let the event proceed degraded.
	c.stalls.Add(1)
	c.metrics.Add(metrics.ShardStalls, 1)
	kept := granted[:0]
	for _, t := range granted {
		if c.pend[t].Load() < seq {
			c.breakers[t].Failure(now)
		} else {
			kept = append(kept, t)
		}
	}
	return Grant{OK: true, Targets: kept, Degraded: true}
}

// BreakerState returns the claim-gate breaker state for a target
// shard, for status surfaces.
func (c *Coordinator) BreakerState(t int) fault.State { return c.breakers[t].State() }
