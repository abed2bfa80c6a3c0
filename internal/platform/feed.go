package platform

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/metrics"
	"crossmatch/internal/online"
)

// ErrEngineClosed is the typed error returned when an Engine is driven
// after Finish — the "already run" guard of the incremental runtime.
// Before the serving layer existed every run was a one-shot Run call
// that rebuilt its state from scratch, so a second run on the same
// (sealed) machinery was silently impossible; with a long-lived engine
// handle it is a real caller bug and is rejected loudly. Match it with
// errors.Is.
var ErrEngineClosed = errors.New("engine already finished")

// ErrTimeRegression is the typed error returned when an event is fed
// with an arrival time earlier than one already processed: the engine's
// determinism contract requires the global arrival sequence to be
// non-decreasing, exactly like a validated Stream. Match it with
// errors.Is.
var ErrTimeRegression = errors.New("event time regression")

// ErrUnknownPlatform is the typed error returned when an event names a
// platform the engine was not built with. Stream runs can never hit it
// (a validated Stream only contains its own platforms), but a live
// server feeds whatever the network sends — without this guard an
// unknown platform ID would reach a nil matcher and panic the
// sequencer. Match it with errors.Is.
var ErrUnknownPlatform = errors.New("unknown platform")

// RecycleIDBase is the first worker ID an Engine mints for recycled
// workers (ServiceTicks > 0) when no explicit base is set: high enough
// that externally supplied worker IDs never collide with it. Replay
// callers that need bit-parity with a stream run instead seed the
// allocator with the stream's maximum worker ID via SetRecycleBase.
const RecycleIDBase int64 = 1 << 40

// RequestDecision is the serving-facing outcome of one request event:
// who served it (if anyone), at what payment, and why it ended the way
// it did. Process returns the zero RequestDecision for worker arrivals.
type RequestDecision struct {
	// Request is the decided request.
	Request *core.Request
	// Served reports whether any worker took the request.
	Served bool
	// Reason tags how the decision ended (online.Reason vocabulary:
	// "inner", "outer", "no-workers", "unprofitable", ...).
	Reason online.Reason
	// Worker is the assigned worker; nil when unserved.
	Worker *core.Worker
	// Outer is true when Worker belongs to another platform.
	Outer bool
	// Payment is the outer payment v' (zero for inner assignments).
	Payment float64
	// Revenue is what the request's platform books (v, or v − v').
	Revenue float64
	// Deferred is true when a windowed matcher (BatchCOM) buffered the
	// request instead of deciding it: no outcome field is meaningful and
	// the final decision arrives later through the engine's decision
	// handler when the window flushes (SetDecisionHandler).
	Deferred bool
	// At is the virtual time the decision was made: the arrival tick for
	// the greedy matchers, the window flush tick for a windowed one — so
	// At − Request.Arrival is the request's dispatch wait, the quantity
	// the window+deadline geometry bounds.
	At core.Time
}

// set fills rd from a matcher decision: the serving-facing form of it.
// rd is cleared and filled field by field, which writes it in place
// where a composite literal would be built aside and copied in.
func (rd *RequestDecision) set(r *core.Request, d *online.Decision, at core.Time) {
	*rd = RequestDecision{}
	rd.Request, rd.Served, rd.Reason, rd.Deferred, rd.At = r, d.Served, d.Reason, d.Deferred, at
	if d.Served {
		rd.Worker = d.Assignment.Worker
		rd.Outer = d.Assignment.Outer
		rd.Payment = d.Assignment.Payment
		rd.Revenue = d.Assignment.Revenue()
	}
}

// Engine is the one event loop of this package: it takes the next
// arrival, settles what is due, decides, and folds the decision. A
// server feeds it from a live socket — events arrive, decisions return
// synchronously — and a stream run is Process in a loop over the
// stream's events.
//
// The engine is single-goroutine by construction: it starts no
// goroutine and holds no lock, and neither do its hub, matchers, pools
// and index. Exactly one caller (the serving layer's sequencer, or one
// feeder) may invoke its methods, in event-time order; a caller that
// shares an engine across goroutines serialises the calls itself.
type Engine struct {
	// What the loop runs over: the hub, one matcher and one result slot
	// per platform (slots[i] is pids[i]'s), built by NewEngine.
	cfg   Config
	hub   *Hub
	pids  []core.PlatformID
	slots []slot
	res   *Result
	// dec is the decision a request is decided into: the matcher fills
	// it in place, and fold and Process read it there, so the 88-byte
	// struct is never copied up the call chain.
	dec online.Decision
	// windowed lists the platforms whose matcher defers decisions into
	// virtual-time windows (BatchCOM), in ascending pid order — the tie
	// order when several windows fall due at the same virtual time.
	// Empty for the greedy matchers, in which case settleDue degenerates
	// to the plain recycle flush.
	windowed []windowedEntry
	// onFlush, when non-nil, receives every window-flushed decision as
	// it is folded (the serving layer's hook for answering deferred
	// requests). Never called for immediate (non-deferred) decisions.
	onFlush func(RequestDecision)
	// nextID allocates IDs for recycled workers: the next one is
	// nextID+1. Stream runs seed it with the stream's max worker ID.
	nextID int64

	recycle  recycleHeap
	recycled int
	last     core.Time
	started  bool
	finished bool
}

// SetRecycleBase seeds the recycled-worker ID allocator: the next
// recycled worker gets base+1, matching Run's allocation from the
// stream's maximum worker ID. It must be called before the first event;
// afterwards it returns an error so a mid-run rebase can never fork the
// ID sequence away from a replayed run.
func (e *Engine) SetRecycleBase(base int64) error {
	if e.started || e.finished {
		return fmt.Errorf("platform: SetRecycleBase after the first event; seed the allocator before feeding")
	}
	e.nextID = base
	return nil
}

// Process feeds one arrival event. Worker arrivals join their
// platform's waiting list and return the zero RequestDecision; request
// arrivals are decided immediately (the online constraint) and return
// the decision. Recycled workers due at or before the event's time are
// delivered first. Events must be fed in non-decreasing time order; a
// regression returns an error wrapping ErrTimeRegression, and any call
// after Finish returns one wrapping ErrEngineClosed. A rejected event
// leaves the engine exactly where it was.
func (e *Engine) Process(ev core.Event) (rd RequestDecision, err error) {
	s, err := e.check(ev)
	if err == nil {
		err = e.apply(ev, s)
	}
	if err == nil && ev.Kind == core.RequestArrival {
		rd.set(ev.Request, &e.dec, ev.Time)
	}
	return rd, err
}

// check validates an event — lifecycle, time order, kind, payload,
// platform and the payload's own fields — without touching the engine,
// and returns its platform's slot: the clock moves only for events that
// pass.
func (e *Engine) check(ev core.Event) (*slot, error) {
	if e.finished {
		return nil, fmt.Errorf("platform: %w", ErrEngineClosed)
	}
	if e.started && ev.Time < e.last {
		return nil, fmt.Errorf("platform: %w: event at %d after %d", ErrTimeRegression, ev.Time, e.last)
	}
	var pid core.PlatformID
	switch {
	case ev.Kind == core.WorkerArrival && ev.Worker != nil:
		pid = ev.Worker.Platform
	case ev.Kind == core.RequestArrival && ev.Request != nil:
		pid = ev.Request.Platform
	case ev.Kind == core.WorkerArrival:
		return nil, fmt.Errorf("platform: worker event with nil payload")
	case ev.Kind == core.RequestArrival:
		return nil, fmt.Errorf("platform: request event with nil payload")
	default:
		return nil, fmt.Errorf("platform: unknown event kind %d", ev.Kind)
	}
	s := e.slotOf(pid)
	if s == nil {
		return nil, fmt.Errorf("platform: %w: %d", ErrUnknownPlatform, pid)
	}
	// The pool builds a worker's pricing history on delivery and the
	// Matching refuses a request's value on Add, both after the clock
	// and a pool have moved; what they would refuse is refused here.
	var err error
	if ev.Kind == core.WorkerArrival {
		err = ev.Worker.Validate()
	} else {
		err = ev.Request.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	return s, nil
}

// apply is the event loop's body, the only place an arrival reaches the
// matchers: move the clock (settling what that makes due), then deliver
// the worker or decide the request into e.dec, inside the request's
// trace span, and fold the decision. The caller has validated ev and
// found its platform's slot s.
func (e *Engine) apply(ev core.Event, s *slot) error {
	if err := e.advance(ev.Time); err != nil {
		return err
	}
	if ev.Kind == core.WorkerArrival {
		// Keep the recycled-ID allocator above every externally supplied
		// worker ID so live traffic can never collide with a mint.
		if id := ev.Worker.ID; id > e.nextID {
			e.nextID = id
		}
		return e.deliver(ev.Worker, s)
	}
	start := time.Since(epoch)
	s.rec.Begin(ev.Request)
	s.matcher.RequestArrives(ev.Request, &e.dec)
	s.rec.Finish(string(e.dec.Reason), e.dec.Assignment.Payment, e.dec.Probes, e.dec.ClaimRetries)
	el := time.Since(epoch) - start
	// A Deferred decision means a windowed matcher buffered the request:
	// nothing is decided yet, and folding the placeholder would count the
	// request twice — foldWindow books it at flush time.
	if e.dec.Deferred {
		return nil
	}
	return e.fold(s, &e.dec, ev.Time, el)
}

// epoch is the origin of the engine's decision timings: time.Since of
// it reads the monotonic clock alone, where time.Now reads the wall
// clock as well.
var epoch = time.Now()

// advance moves the clock to t and settles everything due at or before
// it — the one settleDue call site, behind every clock move (an event,
// AdvanceTime, the end-of-run drain).
func (e *Engine) advance(t core.Time) error {
	e.started, e.last = true, t
	return e.settleDue(t)
}

// settleDue settles everything due at or before bound, in virtual-time
// order: recycled workers re-join their waiting lists and windowed
// matchers flush their open windows, interleaved by due time (a recycled
// worker beats a window flushing at the same tick — it was already
// waiting when the window closed; equal window dues flush in ascending
// pid order, the wins slice order). Window flushes can mint recycled
// workers whose re-arrival is still within bound, so the loop keeps
// settling until nothing is due. BatchCOM's wait ≤ min(window, deadline)
// is a property of this order. With no windowed matchers it is the plain
// recycle flush.
func (e *Engine) settleDue(bound core.Time) error {
	for {
		recDue := len(e.recycle) > 0 && e.recycle[0].Arrival <= bound
		winIdx := -1
		var winAt core.Time
		for i := range e.windowed {
			if t, open := e.windowed[i].m.NextFlush(); open && t <= bound && (winIdx < 0 || t < winAt) {
				winIdx, winAt = i, t
			}
		}
		switch {
		case !recDue && winIdx < 0:
			return nil
		case recDue && (winIdx < 0 || e.recycle[0].Arrival <= winAt):
			w := heap.Pop(&e.recycle).(*core.Worker)
			if err := e.deliver(w, e.slotOf(w.Platform)); err != nil {
				return err
			}
			e.recycled++
		default:
			we := e.windowed[winIdx]
			start := time.Since(epoch)
			wds := we.m.Advance(winAt)
			el := time.Since(epoch) - start
			if err := e.foldWindow(we.s, wds, el); err != nil {
				return err
			}
		}
	}
}

// foldWindow folds one window flush's decisions. The flush's monotonic
// cost is attributed evenly across its decisions, so latency aggregates
// stay comparable with the greedy matchers' per-request observations:
// each gets el/n, and the first el mod n one nanosecond more, so the
// shares sum to the flush's cost.
func (e *Engine) foldWindow(s *slot, wds []online.WindowDecision, el time.Duration) error {
	n := time.Duration(len(wds))
	if n == 0 {
		return nil
	}
	share, rem := el/n, el%n
	for i := range wds {
		wd := &wds[i]
		d := share
		if time.Duration(i) < rem {
			d++
		}
		if err := e.fold(s, &wd.Decision, wd.At, d); err != nil {
			return err
		}
		if e.onFlush != nil {
			var rd RequestDecision
			rd.set(wd.Request, &wd.Decision, wd.At)
			e.onFlush(rd)
		}
	}
	return nil
}

// fold books one final decision made at virtual time at: latency, Stats
// and the metrics funnel, then for a served request the Matching and —
// with ServiceTicks — the recycled worker. It is the only
// place a decision reaches any of them.
func (e *Engine) fold(s *slot, d *online.Decision, at core.Time, el time.Duration) error {
	pr := s.res
	pr.Latency.Observe(el)
	pr.Stats.Observe(d)
	if mc := e.cfg.Metrics; mc != nil {
		mc.ObserveLatency(s.label, el)
		mc.Add(metrics.AcceptanceProbes, int64(d.Probes))
		mc.Add(metrics.ClaimRetries, int64(d.ClaimRetries))
		if d.CoopAttempted {
			mc.Add(metrics.CoopAttempts, 1)
		}
		switch {
		case d.Served && d.Assignment.Outer:
			mc.Add(metrics.OuterMatches, 1)
		case d.Served:
			mc.Add(metrics.InnerMatches, 1)
		default:
			mc.Add(metrics.Rejections, 1)
		}
	}
	if !d.Served {
		return nil
	}
	if err := pr.Matching.Add(d.Assignment); err != nil {
		return fmt.Errorf("platform %d: %w", pr.ID, err)
	}
	if e.cfg.ServiceTicks <= 0 {
		return nil
	}
	w := d.Assignment.Worker
	earned := d.Assignment.Request.Value
	if d.Assignment.Outer {
		earned = d.Assignment.Payment
	}
	e.nextID++
	heap.Push(&e.recycle, &core.Worker{
		ID:       e.nextID,
		Arrival:  at + e.cfg.ServiceTicks,
		Loc:      d.Assignment.Request.Loc,
		Radius:   w.Radius,
		Platform: w.Platform,
		History:  append(append([]float64(nil), w.History...), earned),
	})
	return nil
}

// AdvanceTime moves the engine's virtual clock to t without feeding an
// event, settling everything due at or before t — recycled-worker
// re-arrivals and, above all, windowed-matcher flushes, which is how
// the serving layer drives BatchCOM windows shut between arrivals. A t
// at or before the clock's current position is a no-op (the settle
// already happened when the clock passed it); a t ahead of it advances
// the clock, so later events must arrive at or after t, exactly like an
// event at t.
func (e *Engine) AdvanceTime(t core.Time) error {
	if e.finished {
		return fmt.Errorf("platform: %w", ErrEngineClosed)
	}
	if e.started && t <= e.last {
		return nil
	}
	return e.advance(t)
}

// SetDecisionHandler registers the hook receiving every window-flushed
// decision as it is folded (nil unregisters). The serving layer uses it
// to answer requests that got a Deferred placeholder from Process. Set
// it before feeding events; it runs inside whichever call triggers a
// flush.
func (e *Engine) SetDecisionHandler(fn func(RequestDecision)) {
	e.onFlush = fn
}

// Windowed reports whether any platform runs a windowed matcher — when
// false, AdvanceTime can never flush anything and callers may skip
// clock-driving entirely.
func (e *Engine) Windowed() bool { return len(e.windowed) > 0 }

// NextFlush returns the earliest due time among open windows, and
// whether any window is open — some windowed matcher is holding
// buffered requests right now. The serving layer compares it against
// the sequencer's virtual clock to tick (and WAL-log the tick) only when
// the tick would actually flush something, so an idle server logs
// nothing.
func (e *Engine) NextFlush() (core.Time, bool) {
	due, open := core.Time(0), false
	for i := range e.windowed {
		if t, ok := e.windowed[i].m.NextFlush(); ok && (!open || t < due) {
			due, open = t, true
		}
	}
	return due, open
}

// ShardStats returns nil. Inert: kept only because the frozen
// bench/probes.go calls it; the next benchmark PR deletes it with the
// shard.* rows.
func (e *Engine) ShardStats() []metrics.ShardSnapshot { return nil }

// Finish settles everything still pending — recycled workers due after
// the last event and the final open window, interleaved in virtual-time
// order, so every completed service counts as a re-arrival and every
// buffered request gets its decision — and returns the accumulated
// Result. The engine is closed afterwards: further Process or Finish
// calls return an error wrapping ErrEngineClosed.
func (e *Engine) Finish() (*Result, error) {
	if e.finished {
		return nil, fmt.Errorf("platform: %w", ErrEngineClosed)
	}
	e.finished = true
	if err := e.advance(core.Time(math.MaxInt64)); err != nil {
		return nil, err
	}
	e.res.Recycled = e.recycled
	e.res.Lent = e.hub.Lent()
	e.foldPricing()
	return e.res, nil
}

// run feeds a stream's events into a fresh engine and finishes it,
// polling ctx every cancelCheckMask+1 events. A canceled run settles
// what is pending (buffered BatchCOM requests get their flush decision)
// and returns the partial Result alongside an error wrapping ctx.Err().
func (e *Engine) run(ctx context.Context, events []core.Event) (*Result, error) {
	for i, ev := range events {
		if i&cancelCheckMask == 0 && ctx.Err() != nil {
			res, err := e.Finish()
			if err != nil {
				return nil, err
			}
			return res, fmt.Errorf("platform: run stopped after %d events: %w", i, ctx.Err())
		}
		if _, err := e.Process(ev); err != nil {
			return nil, err
		}
	}
	return e.Finish()
}
