package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/platform"
)

// sequence is the server's single engine-driving goroutine: it owns
// the wall-clock→virtual-time bridge and is the only caller of
// Engine.Process, which keeps the engine's sequential determinism
// contract intact under concurrent HTTP traffic.
//
// Live mode: each admitted event is stamped with the server's virtual
// tick (milliseconds since start, clamped monotone) and fed in queue
// order — arrival order at the queue IS the event order.
//
// Replay mode: events carry their recorded stream index; a cursor
// walks the recorded order and out-of-order arrivals wait in a pending
// map until their predecessors have been fed. The recorded arrival
// ticks are authoritative, so the engine sees exactly the offline
// event sequence and the final Result is bit-identical to Run.
func (s *Server) sequence() {
	defer close(s.seqDone)
	pending := make(map[int]*ingest)
	// Live-mode windowed engines flush on wall-clock time, not only on
	// arrivals: the ticker keeps an idle server honouring its window due
	// times. Replay mode has no ticker — the recorded arrival ticks
	// drive the flushes, exactly as the offline run. A nil channel never
	// fires, so the non-windowed select degenerates to a queue receive.
	var tick <-chan time.Time
	if s.eng.Windowed() && s.replayIdx == nil {
		t := time.NewTicker(s.tickInterval())
		defer t.Stop()
		tick = t.C
	}
	// s.cursor starts at 0, or past the recovered prefix when a WAL
	// re-drive ran before this goroutine started.
	for {
		var it *ingest
		var ok bool
		select {
		case it, ok = <-s.queue:
		case <-tick:
			s.tickWindows()
			continue
		}
		if !ok {
			break
		}
		if s.draining.Load() {
			// Admitted before the drain flag flipped, but no longer worth
			// deciding: the contract is "in-flight completes, queued gets a
			// drain reason".
			s.ctr.drained.Add(1)
			it.done <- WireDecision{Status: StatusDraining, Kind: KindName(it.ev.Kind),
				ID: eventID(it.ev), Error: "server draining; event not applied"}
			continue
		}
		if it.seq < 0 {
			s.stamp(&it.ev)
			s.process(it)
			continue
		}
		if it.seq != s.cursor {
			pending[it.seq] = it
			continue
		}
		s.process(it)
		s.cursor++
		for next, ok := pending[s.cursor]; ok; next, ok = pending[s.cursor] {
			delete(pending, s.cursor)
			if s.draining.Load() {
				s.ctr.drained.Add(1)
				next.done <- WireDecision{Status: StatusDraining, Kind: KindName(next.ev.Kind),
					ID: eventID(next.ev), Error: "server draining; event not applied"}
			} else {
				s.process(next)
			}
			s.cursor++
		}
	}
	// Queue closed with replay holes: answer the stranded waiters.
	for _, it := range pending {
		s.ctr.drained.Add(1)
		it.done <- WireDecision{Status: StatusDraining, Kind: KindName(it.ev.Kind),
			ID: eventID(it.ev), Error: "server draining; event not applied"}
	}
	// Deferred requests still buffered in an open window: their events
	// ARE applied — the window flushes inside Close's engine finish and
	// the decisions count in the final Result — but the HTTP waiters
	// cannot outlive the drain.
	for id, it := range s.waiters {
		delete(s.waiters, id)
		s.ctr.drained.Add(1)
		it.done <- WireDecision{Status: StatusDraining, Kind: KindName(it.ev.Kind),
			ID: eventID(it.ev), Error: "server draining; the buffered window resolves at close"}
	}
}

// tickInterval picks the live window ticker period: half the window
// (one virtual tick is one wall-clock millisecond in live mode),
// clamped to [5ms, 1s] so tiny windows do not spin and huge windows
// still get their deadline-clamped flushes promptly.
func (s *Server) tickInterval() time.Duration {
	w := s.opts.Window
	if w <= 0 {
		w = platform.DefaultBatchWindow
	}
	iv := time.Duration(w) * time.Millisecond / 2
	if iv < 5*time.Millisecond {
		iv = 5 * time.Millisecond
	}
	if iv > time.Second {
		iv = time.Second
	}
	return iv
}

// tickWindows advances the engine's virtual clock to "now" when a
// window flush is due, which flushes it. The tick is logged to the WAL
// first (write-ahead, same contract as events): recovery must flush
// the same windows at the same virtual times, or the recovered engine
// state — and the snapshot digest — would fork from the live history.
// Ticks with nothing due append nothing, so an idle server does not
// grow its log.
func (s *Server) tickWindows() {
	due, open := s.eng.NextFlush()
	if !open {
		return
	}
	now := s.vbase + time.Since(s.started).Milliseconds()
	if now < s.vlast {
		now = s.vlast
	}
	if core.Time(now) < due {
		return
	}
	if s.wal != nil {
		if err := s.logTick(core.Time(now)); err != nil {
			s.ctr.walErrors.Add(1)
			return // write-ahead: no unlogged flush
		}
	}
	s.vlast = now
	if err := s.eng.AdvanceTime(core.Time(now)); err != nil {
		s.ctr.engineErrors.Add(1)
	}
	s.maybeSnapshot()
}

// onWindowFlush is the engine's decision handler for window flushes:
// it books the decision counters (deferred requests are counted here,
// at flush, not at arrival — see apply) and answers the waiter still
// owed this decision, if its handler has not already given up on the
// HTTP deadline. Runs inside engine calls made by the sequencer or the
// recovery re-drive, so it shares their single-goroutine discipline.
func (s *Server) onWindowFlush(rd platform.RequestDecision) {
	s.ctr.served.Add(1)
	if rd.Served {
		s.ctr.matched.Add(1)
		s.ctr.addRevenue(rd.Revenue)
	}
	id := rd.Request.ID
	if it, ok := s.waiters[id]; ok {
		delete(s.waiters, id)
		it.done <- decisionLine(core.RequestArrival, id, int64(rd.Request.Arrival), rd)
	}
}

// stamp writes the live virtual clock onto an event: milliseconds
// since server start plus the resumed base, clamped non-decreasing so
// wall-clock jitter can never violate the engine's time-order
// contract. The base matters across restarts: a recovered server must
// never stamp an arrival before its restored high-water mark, or the
// engine would reject it with
// ErrTimeRegression.
func (s *Server) stamp(ev *core.Event) {
	vt := s.vbase + time.Since(s.started).Milliseconds()
	if vt < s.vlast {
		vt = s.vlast
	}
	s.vlast = vt
	ev.Time = core.Time(vt)
	switch ev.Kind {
	case core.WorkerArrival:
		ev.Worker.Arrival = core.Time(vt)
	case core.RequestArrival:
		ev.Request.Arrival = core.Time(vt)
	}
}

// process feeds one event through the WAL (when durability is on) and
// the engine, then answers its waiter. The done channel is buffered,
// so a handler that already gave up on its deadline never blocks the
// sequencer.
func (s *Server) process(it *ingest) {
	if s.opts.ProcessDelay > 0 {
		time.Sleep(s.opts.ProcessDelay)
	}
	if s.wal != nil {
		// Write-ahead: the engine must not see an event the log cannot
		// reproduce. A failed append answers 500 without mutating state.
		if err := s.logEvent(it.ev, it.seq); err != nil {
			s.ctr.walErrors.Add(1)
			it.done <- WireDecision{Status: StatusError, Kind: KindName(it.ev.Kind),
				ID: eventID(it.ev), VTime: int64(it.ev.Time), Error: "wal append: " + err.Error()}
			return
		}
	}
	d, err := s.apply(it.ev)
	if err != nil {
		it.done <- WireDecision{Status: StatusError, Kind: KindName(it.ev.Kind),
			ID: eventID(it.ev), VTime: int64(it.ev.Time), Error: err.Error()}
		return
	}
	if d.Deferred {
		// The window buffered this request; the real decision is owed at
		// flush time and onWindowFlush answers it then. Answering now
		// would leak a reason-less non-decision, and if the flush lands
		// after the handler's deadline the handler 504s on its own — the
		// event stays sequenced and still resolves at the flush.
		s.waiters[eventID(it.ev)] = it
		s.maybeSnapshot()
		return
	}
	it.done <- decisionLine(it.ev.Kind, eventID(it.ev), int64(it.ev.Time), d)
	s.maybeSnapshot()
}

// apply feeds one event to the engine and books the decision counters.
// Both the live sequencer and the startup recovery re-drive go through
// it, so a recovered server's counters continue the pre-crash sequence
// exactly. Deferred (window-buffered) requests are NOT counted here —
// their decision does not exist yet; onWindowFlush counts them when
// the window flushes, which keeps the counters a pure function of the
// logged history (events + ticks) and the snapshot digest verifiable.
func (s *Server) apply(ev core.Event) (platform.RequestDecision, error) {
	d, err := s.eng.Process(ev)
	if err != nil {
		s.ctr.engineErrors.Add(1)
		return d, err
	}
	// applied lags accepted while events wait in the queue or in the
	// replay re-sequencer's pending map; their convergence is the
	// observable "everything admitted has reached the engine" signal.
	s.ctr.applied.Add(1)
	if ev.Kind == core.RequestArrival && !d.Deferred {
		s.ctr.served.Add(1)
		if d.Served {
			s.ctr.matched.Add(1)
			s.ctr.addRevenue(d.Revenue)
		}
	}
	return d, nil
}

func eventID(ev core.Event) int64 {
	switch ev.Kind {
	case core.WorkerArrival:
		return ev.Worker.ID
	case core.RequestArrival:
		return ev.Request.ID
	}
	return 0
}

// unmarshalStrict decodes one JSON value rejecting unknown fields —
// typos in hand-written payloads fail loudly instead of silently
// zeroing.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// lineWriter batches NDJSON response lines through one buffered writer.
type lineWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

func newLineWriter(w io.Writer) *lineWriter {
	bw := bufio.NewWriter(w)
	return &lineWriter{bw: bw, enc: json.NewEncoder(bw)}
}

func (lw *lineWriter) writeLine(v any) { _ = lw.enc.Encode(v) }
func (lw *lineWriter) flush()          { _ = lw.bw.Flush() }
