// Package core defines the canonical domain model of the Cross Online
// Matching (COM) problem from "Real-Time Cross Online Matching in Spatial
// Crowdsourcing" (Cheng et al., ICDE 2020): requests, inner and outer
// crowd workers, assignments, matchings and revenue accounting.
//
// Every other package — the online matchers, the offline optimum, the
// multi-platform simulation, and the experiment harness — speaks in terms
// of these types. The package deliberately contains no algorithmic logic
// beyond constraint checking (Definition 2.6) and revenue arithmetic
// (Equation 1), so that the algorithm packages can be validated against a
// single, trivially-auditable source of truth.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"crossmatch/internal/geo"
)

// PlatformID identifies a spatial crowdsourcing platform. In the paper's
// terminology, from the point of view of platform p, workers with
// Platform == p are inner crowd workers (Definition 2.2) and workers with
// Platform != p are outer crowd workers (Definition 2.3).
type PlatformID int32

// NoPlatform is the zero PlatformID; valid platforms are numbered from 1.
const NoPlatform PlatformID = 0

// Time is a discrete arrival timestamp. The paper orders workers and
// requests on a single global arrival sequence (Table II); ticks are
// abstract but monotone, and the workload generators space them to model
// wall-clock seconds.
type Time int64

// Request is a user request r = <t, l, v> (Definition 2.1): it arrives at
// time t at location l and pays value v to the platform that completes it.
type Request struct {
	ID       int64
	Arrival  Time
	Loc      geo.Point
	Value    float64
	Platform PlatformID // the platform this request was submitted to
}

// Validate reports whether the request is well-formed.
func (r *Request) Validate() error {
	switch {
	case r == nil:
		return errors.New("core: nil request")
	case !r.Loc.IsFinite():
		return fmt.Errorf("core: request %d: non-finite location %v", r.ID, r.Loc)
	case !(r.Value > 0) || math.IsInf(r.Value, 0): // NaN fails every comparison
		return fmt.Errorf("core: request %d: value %v must be positive and finite", r.ID, r.Value)
	case r.Platform == NoPlatform:
		return fmt.Errorf("core: request %d: missing platform", r.ID)
	default:
		return nil
	}
}

// Worker is a crowd worker w = <t, l, rad> (Definitions 2.2 and 2.3): it
// arrives at time t at location l and can serve requests within radius
// rad. History holds the values of the worker's completed past requests
// and drives the acceptance probability of Definition 3.1; it is consulted
// only when the worker acts as an outer worker for another platform. Any
// order is accepted: ascending is shared by the run that reads it,
// anything else is copied and sorted; either way the slice is never
// written after the event is handed to a stream or an engine.
type Worker struct {
	ID       int64
	Arrival  Time
	Loc      geo.Point
	Radius   float64
	Platform PlatformID // the platform this worker is registered with
	History  []float64  // completed request values, in any order
}

// Validate reports whether the worker is well-formed.
func (w *Worker) Validate() error {
	switch {
	case w == nil:
		return errors.New("core: nil worker")
	case !w.Loc.IsFinite():
		return fmt.Errorf("core: worker %d: non-finite location %v", w.ID, w.Loc)
	case !(w.Radius > 0) || math.IsInf(w.Radius, 0): // NaN fails every comparison
		return fmt.Errorf("core: worker %d: radius %v must be positive and finite", w.ID, w.Radius)
	case w.Platform == NoPlatform:
		return fmt.Errorf("core: worker %d: missing platform", w.ID)
	}
	for i, v := range w.History {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("core: worker %d: history value %d = %v must be positive and finite", w.ID, i, v)
		}
	}
	return nil
}

// Range returns the worker's service disk.
func (w *Worker) Range() geo.Circle {
	return geo.Circle{Center: w.Loc, Radius: w.Radius}
}

// Covers reports whether the request location lies within the worker's
// service radius (the range constraint of Definition 2.6).
func (w *Worker) Covers(r *Request) bool {
	return w.Range().Contains(r.Loc)
}

// CanServe reports whether worker w may be assigned to request r under
// the time and range constraints of Definition 2.6. The 1-by-1 and
// invariable constraints are stateful (they depend on what has already
// been matched) and are enforced by Matching.Add.
func CanServe(w *Worker, r *Request) bool {
	return w.Arrival <= r.Arrival && w.Covers(r)
}

// Assignment records that a worker serves a request. For an inner
// assignment, Payment is zero and the platform books the full request
// value. For an outer (cooperative) assignment, Payment is the outer
// payment v' in (0, v] handed to the lender platform's worker
// (Definition 2.4), and the platform books v − v' (Definition 2.5).
type Assignment struct {
	Request *Request
	Worker  *Worker
	Payment float64 // outer payment v'; zero for inner assignments
	Outer   bool    // true when Worker belongs to another platform
}

// Revenue returns the revenue the requesting platform books for this
// assignment (one term of Equation 1).
func (a Assignment) Revenue() float64 {
	if a.Outer {
		return a.Request.Value - a.Payment
	}
	return a.Request.Value
}

// Validate checks the assignment against Definitions 2.4-2.6: the
// request and worker must be well-formed, and the pair must pass check.
func (a Assignment) Validate() error {
	if a.Request != nil && a.Worker != nil {
		if err := a.Request.Validate(); err != nil {
			return err
		}
		if err := a.Worker.Validate(); err != nil {
			return err
		}
	}
	return a.check()
}

// check is what Matching.Add asks of the pair a matcher chose, whose
// request and worker the engine validated on arrival: both present, the
// time and range constraints, an Outer flag agreeing with the platform
// relationship, and an outer payment in (0, v].
func (a Assignment) check() error {
	if a.Request == nil || a.Worker == nil {
		return errors.New("core: assignment with nil request or worker")
	}
	if a.Worker.Arrival > a.Request.Arrival {
		return fmt.Errorf("core: assignment %d<-%d violates time constraint: worker arrives at %d after request at %d",
			a.Request.ID, a.Worker.ID, a.Worker.Arrival, a.Request.Arrival)
	}
	if !a.Worker.Covers(a.Request) {
		return fmt.Errorf("core: assignment %d<-%d violates range constraint: dist %.4f > radius %.4f",
			a.Request.ID, a.Worker.ID, a.Worker.Loc.Dist(a.Request.Loc), a.Worker.Radius)
	}
	outer := a.Worker.Platform != a.Request.Platform
	if outer != a.Outer {
		return fmt.Errorf("core: assignment %d<-%d: Outer flag %v disagrees with platforms (request %d, worker %d)",
			a.Request.ID, a.Worker.ID, a.Outer, a.Request.Platform, a.Worker.Platform)
	}
	if a.Outer {
		if a.Payment <= 0 || a.Payment > a.Request.Value {
			return fmt.Errorf("core: assignment %d<-%d: outer payment %v outside (0, %v]",
				a.Request.ID, a.Worker.ID, a.Payment, a.Request.Value)
		}
	} else if a.Payment != 0 {
		return fmt.Errorf("core: assignment %d<-%d: inner assignment with nonzero payment %v",
			a.Request.ID, a.Worker.ID, a.Payment)
	}
	return nil
}

// Matching is a set of assignments satisfying the 1-by-1 constraint:
// every worker and every request appears at most once. It accumulates the
// platform's revenue per Equation 1 as assignments are added.
type Matching struct {
	assignments []Assignment
	// The request and worker IDs matched so far, checked by every Add.
	requests, workers idSet
	// byRequest indexes assignments[:indexed] by request ID. ByRequest
	// builds it on its first call and extends it on later ones, so a
	// matching that is never asked pays nothing for it.
	byRequest map[int64]int
	indexed   int
	revenue   float64
}

// idSet is an exact set of IDs: one 64-bit word per 64 consecutive IDs,
// keyed by id >> 6, so IDs handed out densely take a map entry per 64 of
// them, and sparse ones no more than a map of IDs would.
type idSet map[int64]uint64

func (s idSet) has(id int64) bool { return s[id>>6]&(1<<(uint64(id)&63)) != 0 }

func (s idSet) add(id int64) { s[id>>6] |= 1 << (uint64(id) & 63) }

// NewMatching returns an empty matching.
func NewMatching() *Matching {
	return &Matching{requests: idSet{}, workers: idSet{}}
}

// Add appends an assignment after checking the pair (Assignment.check)
// and the 1-by-1 constraint; the request and worker themselves are the
// caller's to have validated, as the engine does on arrival, and
// Validate audits them again. The invariable constraint (Definition
// 2.6) is enforced by construction: there is no way to remove or
// replace an assignment.
func (m *Matching) Add(a Assignment) error {
	if err := a.check(); err != nil {
		return err
	}
	if m.requests.has(a.Request.ID) {
		return fmt.Errorf("core: request %d already matched", a.Request.ID)
	}
	if m.workers.has(a.Worker.ID) {
		return fmt.Errorf("core: worker %d already matched", a.Worker.ID)
	}
	m.requests.add(a.Request.ID)
	m.workers.add(a.Worker.ID)
	if len(m.assignments) == cap(m.assignments) {
		// Double, where append grows a long slice by a quarter: a run's
		// matching then leaves one copy of garbage behind, not four.
		m.assignments = slices.Grow(m.assignments, max(len(m.assignments), 64))
	}
	m.assignments = append(m.assignments, a)
	m.revenue += a.Revenue()
	return nil
}

// Len returns the number of assignments.
func (m *Matching) Len() int { return len(m.assignments) }

// HasRequest reports whether an assignment already holds the request ID.
func (m *Matching) HasRequest(id int64) bool { return m.requests.has(id) }

// HasWorker reports whether an assignment already holds the worker ID.
func (m *Matching) HasWorker(id int64) bool { return m.workers.has(id) }

// Revenue returns the total platform revenue of the matching (Equation 1).
func (m *Matching) Revenue() float64 { return m.revenue }

// Assignments returns the assignments in insertion (arrival) order. The
// returned slice is owned by the matching and must not be mutated.
func (m *Matching) Assignments() []Assignment { return m.assignments }

// ByRequest returns the assignment serving the given request, if any.
func (m *Matching) ByRequest(requestID int64) (Assignment, bool) {
	if m.byRequest == nil {
		m.byRequest = make(map[int64]int, len(m.assignments))
	}
	for ; m.indexed < len(m.assignments); m.indexed++ {
		m.byRequest[m.assignments[m.indexed].Request.ID] = m.indexed
	}
	i, ok := m.byRequest[requestID]
	if !ok {
		return Assignment{}, false
	}
	return m.assignments[i], true
}

// Validate re-checks every assignment and the 1-by-1 constraint. It is meant
// for tests and audits, not hot paths.
func (m *Matching) Validate() error {
	seenR := make(map[int64]bool, len(m.assignments))
	seenW := make(map[int64]bool, len(m.assignments))
	total := 0.0
	for _, a := range m.assignments {
		if err := a.Validate(); err != nil {
			return err
		}
		if seenR[a.Request.ID] {
			return fmt.Errorf("core: request %d matched twice", a.Request.ID)
		}
		if seenW[a.Worker.ID] {
			return fmt.Errorf("core: worker %d matched twice", a.Worker.ID)
		}
		seenR[a.Request.ID] = true
		seenW[a.Worker.ID] = true
		total += a.Revenue()
	}
	if diff := total - m.revenue; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("core: cached revenue %v != recomputed %v", m.revenue, total)
	}
	return nil
}
