package online

import (
	"cmp"
	"math/rand"
	"slices"

	"crossmatch/internal/core"
	"crossmatch/internal/match"
	"crossmatch/internal/pricing"
)

// DefaultBatchWindow is the window length (virtual ticks) used when
// BatchCOM is configured with a non-positive window.
const DefaultBatchWindow core.Time = 10

// BatchCOM is the windowed dispatch variant of cross online matching:
// instead of deciding each request greedily at arrival (DemCOM), it
// buffers arrivals for a virtual-time window W, builds the feasible
// inner+outer edge set for the whole batch, and commits a max-weight
// matching when the window flushes. Edge weights follow Algorithm 1's
// revenue model — v for an inner assignment, v−v' for an outer one with
// v' the Monte-Carlo minimum outer payment — so a flush is exactly the
// offline oracle restricted to one window's requests and the workers
// waiting at flush time. Per-request deadlines bound waiting: a request
// whose deadline lands before the window's scheduled end pulls the whole
// flush forward.
//
// Determinism contract (the fuzz-guarded invariant): a flush is a pure
// function of the buffered request set and the waiting-list state —
// requests are canonicalized by ID before any rng is consumed, candidate
// lists are sorted by worker ID, and quote/probe draws happen per
// request in ID order, so intra-window delivery permutations of
// same-time arrivals cannot change the matching.
//
// The driver contract: the simulation layer must call Advance(t) up to
// every event's time before delivering it (internal/platform.settleDue
// does), so a window is always flushed before any arrival at or past its
// due time is buffered.
//
// Its spans open and close at flush time, so they carry the batched
// outcome but no stage timings.
type BatchCOM struct {
	cooperative

	window   core.Time
	deadline core.Time // 0 = unbounded per-request wait

	// Open-window state. At most one window is open: it opens when a
	// request is buffered into an empty buf and closes at the first
	// Advance at or past flushAt.
	buf      []*core.Request
	winStart core.Time
	flushAt  core.Time

	// Flush scratch, reused across windows (one goroutine drives a
	// matcher, so reuse is race-free).
	builder  match.Builder
	ents     []winEntry
	allInner []*core.Worker
	allOuter []outerProbe
	colWs    []*core.Worker
	out      []WindowDecision
}

// winEntry is one buffered request's flush-time state: its candidate
// ranges into the flattened allInner/allOuter arrays plus the pricing
// and probing outcome that determines its arcs and, if unmatched, its
// rejection reason.
type winEntry struct {
	r                *core.Request
	innerLo, innerHi int32
	outerLo, outerHi int32
	payment          float64
	probes           int
	hadOuter         bool // eligible outer candidates existed
	profitable       bool // quoted payment <= request value
	anyAccept        bool // at least one probe accepted
}

// outerProbe is one outer candidate plus its probe result.
type outerProbe struct {
	cand    Candidate
	accepts bool
}

// NewBatchCOM builds the matcher. coop supplies and claims outer workers
// (use NoCoop to degrade to single-platform batching); mc configures the
// Algorithm 2 payment estimator; rng drives sampling and acceptance
// probes; window is the batching window in virtual ticks (non-positive
// selects DefaultBatchWindow); deadline, when positive, caps any
// request's wait, pulling the flush forward.
func NewBatchCOM(coop CoopView, mc pricing.MonteCarlo, rng *rand.Rand, window, deadline core.Time) *BatchCOM {
	if window <= 0 {
		window = DefaultBatchWindow
	}
	return &BatchCOM{
		cooperative: newCooperative(coop, mc, rng),
		window:      window,
		deadline:    deadline,
	}
}

// Name implements Matcher.
func (m *BatchCOM) Name() string { return "BatchCOM" }

// RequestArrives implements Matcher: the request is buffered into the
// open window (opening one if none is) and a Deferred placeholder is
// returned; the real Decision arrives from Advance when the window
// flushes.
func (m *BatchCOM) RequestArrives(r *core.Request, d *Decision) {
	if len(m.buf) == 0 {
		m.winStart = r.Arrival
		m.flushAt = m.winStart + m.window
	}
	if m.deadline > 0 {
		if due := r.Arrival + m.deadline; due < m.flushAt {
			m.flushAt = due
		}
	}
	m.buf = append(m.buf, r)
	*d = Decision{Deferred: true, Reason: ReasonBuffered}
}

// NextFlush implements WindowedMatcher.
func (m *BatchCOM) NextFlush() (core.Time, bool) {
	return m.flushAt, len(m.buf) > 0
}

// Advance implements WindowedMatcher: when the open window is due at or
// before t it flushes — at its scheduled due time, not at t, so the
// decisions' timestamps are independent of how far the driver's clock
// jumped. The returned slice is reused across calls.
func (m *BatchCOM) Advance(t core.Time) []WindowDecision {
	if len(m.buf) == 0 || t < m.flushAt {
		return nil
	}
	at := m.flushAt
	m.out = m.out[:0]
	m.flush(at)
	m.buf = m.buf[:0]
	return m.out
}

// flush decides every buffered request at virtual time at: canonicalize
// by request ID, gather+price+probe candidates in that order, solve one
// max-weight matching over the batch, then commit assignments in the
// same canonical order.
func (m *BatchCOM) flush(at core.Time) {
	slices.SortFunc(m.buf, func(a, b *core.Request) int { return cmp.Compare(a.ID, b.ID) })

	m.ents = m.ents[:0]
	m.allInner = m.allInner[:0]
	m.allOuter = m.allOuter[:0]
	m.colWs = m.colWs[:0]

	// Phase 1: candidates, quotes and probes, in canonical request
	// order. All rng consumption happens here, so it is a function of
	// the ID-sorted batch only. Outer candidates are copied out of the
	// hub's reused buffer and ID-sorted before any draw.
	for _, r := range m.buf {
		e := winEntry{r: r, innerLo: int32(len(m.allInner))}
		m.allInner = m.pool.AppendCovering(m.allInner, r)
		e.innerHi = int32(len(m.allInner))
		inner := m.allInner[e.innerLo:e.innerHi]
		slices.SortFunc(inner, byWorkerID)

		e.outerLo = int32(len(m.allOuter))
		for _, c := range m.coop.EligibleOuter(r) {
			m.allOuter = append(m.allOuter, outerProbe{cand: c})
		}
		e.outerHi = int32(len(m.allOuter))
		outer := m.allOuter[e.outerLo:e.outerHi]
		slices.SortFunc(outer, func(a, b outerProbe) int {
			return cmp.Compare(a.cand.Worker.ID, b.cand.Worker.ID)
		})

		if len(outer) > 0 {
			e.hadOuter = true
			group := m.scratch.Group(len(outer))
			for k := range outer {
				group[k] = outer[k].cand.History
			}
			e.payment = estimatePayment(m.quoter, r.Value, group, m.rng, m.scratch)
			if e.payment <= r.Value {
				e.profitable = true
				e.probes = len(outer)
				for k := range outer {
					if outer[k].cand.History.Accepts(e.payment, m.rng) {
						outer[k].accepts = true
						e.anyAccept = true
					}
				}
			}
		}
		m.ents = append(m.ents, e)
	}

	// Phase 2: distinct worker columns, sorted by ID. Only workers that
	// can receive an arc become columns: every inner candidate, and the
	// accepting outer candidates.
	for i := range m.ents {
		e := &m.ents[i]
		m.colWs = append(m.colWs, m.allInner[e.innerLo:e.innerHi]...)
		for _, p := range m.allOuter[e.outerLo:e.outerHi] {
			if p.accepts {
				m.colWs = append(m.colWs, p.cand.Worker)
			}
		}
	}
	slices.SortFunc(m.colWs, byWorkerID)
	j := 0
	for i, w := range m.colWs {
		if i == 0 || w.ID != m.colWs[j-1].ID {
			m.colWs[j] = w
			j++
		}
	}
	m.colWs = m.colWs[:j]

	// Phase 3: arcs and the solve. Inner arcs carry the full value,
	// outer arcs the platform's v−v' margin; non-positive margins are
	// omitted (the solvers would drop them anyway).
	m.builder.Reset(len(m.colWs), len(m.ents))
	for i := range m.ents {
		e := &m.ents[i]
		for _, w := range m.allInner[e.innerLo:e.innerHi] {
			m.builder.Arc(m.colOf(w.ID), i, e.r.Value)
		}
		if e.profitable {
			if wgt := e.r.Value - e.payment; wgt > 0 {
				for _, p := range m.allOuter[e.outerLo:e.outerHi] {
					if p.accepts {
						m.builder.Arc(m.colOf(p.cand.Worker.ID), i, wgt)
					}
				}
			}
		}
	}
	res := m.builder.Solve()

	// Phase 4: commit in canonical order. Candidates were gathered inside
	// this flush, so only an injected claim fault can fail a claim; it
	// surfaces as ReasonClaimsLost, exactly like the greedy matchers.
	// Each decision's span opens and closes here, not in the engine, so
	// the claim faults injected during the commit land in it.
	for i := range m.ents {
		e := &m.ents[i]
		m.tr.Begin(e.r)
		d := m.commit(e, res.WorkerOf[i])
		m.tr.Finish(string(d.Reason), d.Assignment.Payment, d.Probes, d.ClaimRetries)
		m.out = append(m.out, WindowDecision{Request: e.r, At: at, Decision: d})
	}
}

// colOf returns the worker's column index in the ID-sorted colWs.
func (m *BatchCOM) colOf(id int64) int {
	col, _ := slices.BinarySearchFunc(m.colWs, id, func(w *core.Worker, id int64) int { return cmp.Compare(w.ID, id) })
	return col
}

// byWorkerID orders workers by ID. Every slice flush sorts with it holds
// distinct workers, or the same pointer under one ID, so the order is
// the same whichever sort runs.
func byWorkerID(a, b *core.Worker) int { return cmp.Compare(a.ID, b.ID) }

// commit turns one request's solver assignment (or -1) into a Decision,
// claiming the worker from the pool or the hub.
func (m *BatchCOM) commit(e *winEntry, col int) Decision {
	r := e.r
	if col >= 0 {
		w := m.colWs[col]
		if w.Platform == r.Platform {
			if !m.pool.Remove(w.ID) {
				return Decision{Reason: ReasonClaimsLost, ClaimRetries: 1, CoopAttempted: e.hadOuter, Probes: e.probes}
			}
			return Decision{
				Served:     true,
				Reason:     ReasonInner,
				Probes:     e.probes,
				Assignment: core.Assignment{Request: r, Worker: w},
			}
		}
		if !m.coop.Claim(w.ID) {
			return Decision{Reason: ReasonClaimsLost, ClaimRetries: 1, CoopAttempted: true, Probes: e.probes}
		}
		return Decision{
			Served:        true,
			CoopAttempted: true,
			Probes:        e.probes,
			Reason:        ReasonOuter,
			Assignment: core.Assignment{
				Request: r,
				Worker:  w,
				Payment: e.payment,
				Outer:   true,
			},
		}
	}
	hadInner := e.innerHi > e.innerLo
	switch {
	case !hadInner && !e.hadOuter:
		return Decision{Reason: ReasonNoWorkers}
	case !hadInner && !e.profitable:
		return Decision{CoopAttempted: true, Reason: ReasonUnprofitable}
	case !hadInner && !e.anyAccept:
		return Decision{CoopAttempted: true, Probes: e.probes, Reason: ReasonNoAcceptor}
	default:
		// Feasible workers existed but the solver spent them on other
		// requests in the window.
		return Decision{CoopAttempted: e.hadOuter, Probes: e.probes, Reason: ReasonWindowLost}
	}
}
