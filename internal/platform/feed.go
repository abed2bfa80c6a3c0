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
	"crossmatch/internal/trace"
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
	// dec is the record a request is decided into: apply sets its
	// Request and At, the matcher fills its Decision in place, and fold
	// and Process read it there, so it is never copied up the call chain.
	dec online.Decided
	// windowed lists the slots whose matcher defers decisions into
	// virtual-time windows (BatchCOM), in ascending pid order — the tie
	// order when several windows fall due at the same virtual time.
	// Empty for the greedy matchers, in which case settleDue degenerates
	// to the plain recycle flush.
	windowed []*slot
	// onDecision, when non-nil, receives every request decision as fold
	// books it: on arrival for a greedy matcher, at the window flush for
	// a windowed one. The one exit for decisions; never called with a
	// buffered placeholder.
	onDecision func(online.Decided)
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
// platform's waiting list and return the zero record; request arrivals
// are decided immediately (the online constraint) and return the
// decided record, which has also reached the decision handler unless a
// windowed matcher buffered the request (Reason ReasonBuffered; its
// decision reaches the handler at the flush). Recycled workers due at
// or before the event's time are delivered first. Events must be fed in
// non-decreasing time order; a regression returns an error wrapping
// ErrTimeRegression, and any call after Finish returns one wrapping
// ErrEngineClosed. A rejected event leaves the engine exactly where it
// was.
func (e *Engine) Process(ev core.Event) (online.Decided, error) {
	s, err := e.check(ev)
	if err == nil {
		err = e.apply(ev, s)
	}
	if err != nil || ev.Kind != core.RequestArrival {
		return online.Decided{}, err
	}
	return e.dec, nil
}

// check validates an event — lifecycle, time order, platform, the event
// itself (core.Event.Validate: kind, payload, the payload's fields and
// its arrival) and ID — without touching the engine, and returns its
// platform's slot: the clock moves only for events that pass.
func (e *Engine) check(ev core.Event) (*slot, error) {
	if e.finished {
		return nil, fmt.Errorf("platform: %w", ErrEngineClosed)
	}
	if e.started && ev.Time < e.last {
		return nil, fmt.Errorf("platform: %w: event at %d after %d", ErrTimeRegression, ev.Time, e.last)
	}
	// The platform first, so an event for one the engine does not run is
	// refused as such; an event with no payload falls to Validate.
	var pid core.PlatformID
	if ev.Worker != nil {
		pid = ev.Worker.Platform
	} else if ev.Request != nil {
		pid = ev.Request.Platform
	}
	s := e.slotOf(pid)
	if s == nil && (ev.Worker != nil || ev.Request != nil) {
		return nil, fmt.Errorf("platform: %w: %d", ErrUnknownPlatform, pid)
	}
	// The pool builds a worker's pricing history on delivery and the
	// Matching refuses a request's value on Add, both after the clock
	// and a pool have moved; what they would refuse is refused here. The
	// hub's clock is the event's time, so a request's arrival must be it.
	if err := ev.Validate(); err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	if ev.Kind == core.WorkerArrival {
		return s, e.checkWorkerID(ev.Worker)
	}
	return s, checkRequestID(ev.Request, s)
}

// checkWorkerID refuses a worker arrival whose ID has already served
// (any platform's Matching holds it) or waits in another platform's
// pool: the matchers would otherwise take the same worker twice. A
// re-post on its own platform replaces the waiting entry (Pool.Add).
func (e *Engine) checkWorkerID(w *core.Worker) error {
	for i := range e.slots {
		sl := &e.slots[i]
		if sl.res.Matching.HasWorker(w.ID) {
			return fmt.Errorf("platform: worker %d has already served; post it again under a new ID, or with ID 0 for a server-assigned one", w.ID)
		}
		if e.pids[i] != w.Platform && sl.matcher.Pool().Has(w.ID) {
			return fmt.Errorf("platform: worker %d waits on platform %d; post it to platform %d under a new ID, or with ID 0 for a server-assigned one",
				w.ID, e.pids[i], w.Platform)
		}
	}
	return nil
}

// checkRequestID refuses a request arrival whose ID its platform's
// Matching holds (it has been served) or whose open window holds it
// (it waits for the flush): deciding it again would take a worker for
// an assignment the Matching then refuses, after the clock and a pool
// had moved. An unserved request may be posted again.
func checkRequestID(r *core.Request, s *slot) error {
	if s.res.Matching.HasRequest(r.ID) {
		return fmt.Errorf("platform: request %d has already been served on platform %d; post it again under a new ID", r.ID, r.Platform)
	}
	if s.win != nil && s.win.Buffered(r.ID) {
		return fmt.Errorf("platform: request %d waits in platform %d's open window; its decision comes at the flush", r.ID, r.Platform)
	}
	return nil
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
	start := trace.Now()
	e.dec.Request, e.dec.At = ev.Request, ev.Time
	e.hub.now = ev.Time
	s.rec.Begin(ev.Request, start)
	s.matcher.RequestArrives(ev.Request, &e.dec.Decision)
	end := trace.Now()
	s.rec.Finish(end, string(e.dec.Reason), e.dec.Assignment.Payment, e.dec.Probes, e.dec.ClaimRetries)
	// A windowed matcher buffered the request: nothing is decided yet,
	// and folding the placeholder would count the request twice —
	// foldWindow books it at flush time.
	if e.dec.Reason == online.ReasonBuffered {
		return nil
	}
	return e.fold(s, &e.dec, end-start)
}

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
		for i, ws := range e.windowed {
			if t, open := ws.win.NextFlush(); open && t <= bound && (winIdx < 0 || t < winAt) {
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
			ws := e.windowed[winIdx]
			start := trace.Now()
			e.hub.now = winAt
			wds := ws.win.Advance(winAt)
			el := trace.Now() - start
			if err := e.foldWindow(ws, wds, el); err != nil {
				return err
			}
		}
	}
}

// foldWindow folds one window flush's records as the flush returned
// them. The flush's monotonic cost is attributed evenly across its
// decisions, so latency aggregates stay comparable with the greedy
// matchers' per-request observations: each gets el/n, and the first
// el mod n one nanosecond more, so the shares sum to the flush's cost.
func (e *Engine) foldWindow(s *slot, wds []online.Decided, el time.Duration) error {
	n := time.Duration(len(wds))
	if n == 0 {
		return nil
	}
	share, rem := el/n, el%n
	for i := range wds {
		d := share
		if time.Duration(i) < rem {
			d++
		}
		if err := e.fold(s, &wds[i], d); err != nil {
			return err
		}
	}
	return nil
}

// fold books one decided record: for a served request the Matching
// first, so an assignment it refuses is booked nowhere, then latency,
// the CoopAttempted, probe and claim-retry counts, the decision handler
// and — with ServiceTicks — the recycled worker. It is the only place a
// decision reaches any of them; Finish and FoldFunnel read the rest off
// them.
func (e *Engine) fold(s *slot, d *online.Decided, el time.Duration) error {
	pr := s.res
	if d.Served {
		if err := pr.Matching.Add(d.Assignment); err != nil {
			return fmt.Errorf("platform %d: %w", pr.ID, err)
		}
	}
	pr.Latency.Observe(el)
	if d.CoopAttempted {
		pr.Stats.CoopAttempted++
	}
	s.probes += int64(d.Probes)
	s.claimRetries += int64(d.ClaimRetries)
	if e.onDecision != nil {
		e.onDecision(*d)
	}
	if !d.Served || e.cfg.ServiceTicks <= 0 {
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
		Arrival:  d.At + e.cfg.ServiceTicks,
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

// SetDecisionHandler registers the hook receiving every request
// decision as the engine books it (nil unregisters): a greedy matcher's
// inside the Process call that decides it, a windowed matcher's inside
// whichever call (Process, AdvanceTime, Finish) flushes its window. It
// is the one exit for decisions — a buffered placeholder never reaches
// it — so a caller that books decisions books them here and nowhere
// else. Set it before feeding events.
func (e *Engine) SetDecisionHandler(fn func(online.Decided)) {
	e.onDecision = fn
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
	for _, ws := range e.windowed {
		if t, ok := ws.win.NextFlush(); ok && (!open || t < due) {
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
// Result, its Stats and Lent read off the Matchings: Requests is the
// latency record's exact count (fold observes one latency per decided
// request), and a platform lends a worker for each outer assignment
// that worker serves; FoldFunnel adds the run to Config.Metrics. The
// engine is closed afterwards: further Process or Finish calls return an
// error wrapping ErrEngineClosed.
func (e *Engine) Finish() (*Result, error) {
	if e.finished {
		return nil, fmt.Errorf("platform: %w", ErrEngineClosed)
	}
	e.finished = true
	if err := e.advance(core.Time(math.MaxInt64)); err != nil {
		return nil, err
	}
	e.res.Recycled = e.recycled
	e.res.Lent = map[core.PlatformID]int{}
	for i := range e.slots {
		pr := e.slots[i].res
		pr.Stats.Requests = int(pr.Latency.Count())
		pr.Stats.Tally(pr.Matching)
		for _, a := range pr.Matching.Assignments() {
			if a.Outer {
				e.res.Lent[a.Worker.Platform]++
			}
		}
	}
	e.FoldFunnel(e.cfg.Metrics)
	return e.res, nil
}

// Tally returns the run's decided requests (one latency observation
// each), served requests and revenue (Result.TotalRevenue) so far.
func (e *Engine) Tally() (decided, served int64, revenue float64) {
	for i := range e.slots {
		decided += e.slots[i].res.Latency.Count()
		served += int64(e.slots[i].res.Matching.Len())
	}
	return decided, served, e.res.TotalRevenue()
}

// FoldFunnel adds the run so far to mc: one run, the funnel read off
// each platform's Matching, latency record ("platform-N") and fold's
// counts, the quoters' pricing counters and the fault injector's counts
// and spikes. Finish calls it once per run, on Config.Metrics.
func (e *Engine) FoldFunnel(mc *metrics.Collector) {
	if mc == nil {
		return
	}
	mc.Add(metrics.Runs, 1)
	for i := range e.slots {
		sl := &e.slots[i]
		if pp, ok := sl.matcher.(pricingStatsProvider); ok {
			mc.AddPricing(pp.PricingStats())
		}
		pr := sl.res
		var st online.Stats
		st.Tally(pr.Matching)
		mc.Add(metrics.InnerMatches, int64(st.ServedInner))
		mc.Add(metrics.OuterMatches, int64(st.ServedOuter))
		mc.Add(metrics.Rejections, pr.Latency.Count()-int64(st.Served))
		mc.Add(metrics.CoopAttempts, int64(pr.Stats.CoopAttempted))
		mc.Add(metrics.AcceptanceProbes, sl.probes)
		mc.Add(metrics.ClaimRetries, sl.claimRetries)
		mc.MergeLatency(fmt.Sprintf("platform-%d", e.pids[i]), pr.Latency)
	}
	if in := e.hub.faults; in != nil {
		st := in.Stats()
		mc.Add(metrics.FaultLatencySpikes, st.LatencySpikes)
		mc.Add(metrics.FaultDroppedProbes, st.DroppedProbes)
		mc.Add(metrics.FaultClaimErrors, st.ClaimErrors)
		mc.Add(metrics.FaultOutageHits, st.OutageHits)
		mc.Add(metrics.ProbeRetries, st.Retries)
		mc.Add(metrics.ProbeTimeouts, st.Timeouts)
		mc.Add(metrics.BreakerOpened, st.BreakerOpened)
		mc.Add(metrics.BreakerHalfOpened, st.BreakerHalfOpened)
		mc.Add(metrics.BreakerClosed, st.BreakerClosed)
		mc.Add(metrics.BreakerShortCircuits, st.ShortCircuits)
		mc.MergeLatency(metrics.ProbeLatencyLabel, in.Spikes())
	}
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
