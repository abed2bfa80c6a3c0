package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// EventKind distinguishes worker and request arrivals on the global
// arrival sequence (the paper's Table II).
type EventKind uint8

const (
	// WorkerArrival is the arrival of a crowd worker at its platform.
	WorkerArrival EventKind = iota + 1
	// RequestArrival is the arrival of a user request at its platform.
	RequestArrival
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case WorkerArrival:
		return "worker"
	case RequestArrival:
		return "request"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one arrival on the global sequence. Exactly one of Worker and
// Request is non-nil, matching Kind.
type Event struct {
	Time    Time
	Kind    EventKind
	Worker  *Worker
	Request *Request
}

// Validate checks internal consistency of the event.
func (e Event) Validate() error {
	switch e.Kind {
	case WorkerArrival:
		if e.Worker == nil || e.Request != nil {
			return fmt.Errorf("core: malformed worker event at %d", e.Time)
		}
		if err := e.Worker.Validate(); err != nil {
			return err
		}
		if e.Worker.Arrival != e.Time {
			return fmt.Errorf("core: worker %d arrival %d != event time %d", e.Worker.ID, e.Worker.Arrival, e.Time)
		}
	case RequestArrival:
		if e.Request == nil || e.Worker != nil {
			return fmt.Errorf("core: malformed request event at %d", e.Time)
		}
		if err := e.Request.Validate(); err != nil {
			return err
		}
		if e.Request.Arrival != e.Time {
			return fmt.Errorf("core: request %d arrival %d != event time %d", e.Request.ID, e.Request.Arrival, e.Time)
		}
	default:
		return fmt.Errorf("core: unknown event kind %d", e.Kind)
	}
	return nil
}

// Stream is a time-ordered sequence of arrival events, the online input
// of the COM problem.
type Stream struct {
	events []Event
	// Filled once when the stream is built (see note).
	platforms   []PlatformID // ascending, distinct
	maxValue    float64
	maxWorkerID int64
}

// note folds one event into the stream's platform set, largest request
// value and largest worker ID.
func (s *Stream) note(e Event) {
	if e.Kind == RequestArrival {
		s.maxValue = max(s.maxValue, e.Request.Value)
	} else {
		s.maxWorkerID = max(s.maxWorkerID, e.Worker.ID)
	}
	p := eventPlatform(e)
	if i, ok := slices.BinarySearch(s.platforms, p); !ok {
		s.platforms = slices.Insert(s.platforms, i, p)
	}
}

// NewStream builds a stream from events, sorting them by time. Ties are
// broken by kind (workers before requests, so a worker arriving at the
// same tick as a request may serve it, mirroring the paper's "workers can
// only serve requests arriving after them" with non-strict arrival) and
// then by ID for determinism. The slice is copied; the stream's events
// point at the caller's own workers and requests.
func NewStream(events []Event) (*Stream, error) {
	return NewStreamOwned(append([]Event(nil), events...))
}

// NewStreamOwned is NewStream taking ownership of the slice, for
// callers that build it themselves and never touch it again: there is
// no defensive copy, and the stream keeps either the slice or the
// sort's second array of the same size. The payloads stay the caller's
// (see NewStreamPacked).
//
// The order is the stable sort by (time, kind, ID) for every input,
// equal keys included, and it is the one sort of events in the
// repository. Input already in that order — a stream read back from
// CSV, a sub-stream of one — is recognised while it is validated and
// kept as it stands. Anything else goes through sortEvents, whose cost
// is linear in the events but for ties.
func NewStreamOwned(events []Event) (*Stream, error) {
	s := &Stream{events: events}
	ordered := true
	minT, maxT := Time(math.MaxInt64), Time(math.MinInt64)
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		s.note(events[i])
		minT, maxT = min(minT, events[i].Time), max(maxT, events[i].Time)
		ordered = ordered && (i == 0 || compareEvents(events[i-1], events[i]) <= 0)
	}
	if !ordered {
		s.events = sortEvents(events, minT, maxT)
	}
	return s, nil
}

// NewStreamPacked is NewStreamOwned for a builder that owns the
// payloads as well — it allocated every Worker and Request itself and
// keeps no pointer to them. Once the events are in order the payloads
// are copied into two slabs, workers and requests, each in arrival
// order, and the events repointed, so a consumer walking Events() reads
// payload memory front to back instead of taking a cache miss per
// event. History slices are shared, not copied: a physical worker's
// appearances keep one history. What the builder allocated is garbage
// on return.
func NewStreamPacked(events []Event) (*Stream, error) {
	s, err := NewStreamOwned(events)
	if err != nil {
		return nil, err
	}
	events = s.events
	nWorkers := 0
	for i := range events {
		if events[i].Kind == WorkerArrival {
			nWorkers++
		}
	}
	workers := make([]Worker, nWorkers)
	requests := make([]Request, len(events)-nWorkers)
	for i := range events {
		if e := &events[i]; e.Kind == WorkerArrival {
			workers[0] = *e.Worker
			e.Worker, workers = &workers[0], workers[1:]
		} else {
			requests[0] = *e.Request
			e.Request, requests = &requests[0], requests[1:]
		}
	}
	return s, nil
}

// compareEvents orders events by (time, kind, ID).
func compareEvents(a, b Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	return cmp.Compare(eventID(a), eventID(b))
}

// radixBits is the digit width of sortEvents: two passes cover the
// 1.6M-tick span of a 400k-event city, and 2048 counters a pass stay in
// the first-level cache.
const radixBits = 11

// sortEvents returns the events in the stable (time, kind, ID) order:
// in their own array or in a second one of the same size, whichever the
// last pass wrote — the other is garbage. minT and maxT are the least
// and greatest event time.
//
// It is an LSD radix sort of the events themselves on the bits of
// time − minT that vary, which leaves equal times in input order, and
// then a stable comparison sort inside each run of equal times: all of
// the input when every time is equal, two or three events at a time
// when, as in a generated stream, the ticks outnumber the events.
func sortEvents(events []Event, minT, maxT Time) []Event {
	// Times sort as unsigned offsets from minT: the subtraction wraps,
	// so a span of the whole int64 range still comes out right.
	const mask = 1<<radixBits - 1
	base := uint64(minT)
	passes := (bits.Len64(uint64(maxT)-base) + radixBits - 1) / radixBits
	counts := make([]int, passes<<radixBits)
	for i := range events {
		d := uint64(events[i].Time) - base
		for c := counts; len(c) > 0; c, d = c[1<<radixBits:], d>>radixBits {
			c[d&mask]++
		}
	}
	var spare []Event
	if passes > 0 {
		spare = make([]Event, len(events))
	}
	for p := 0; p < passes; p++ {
		c := counts[p<<radixBits : (p+1)<<radixBits]
		at := 0
		for d, m := range c {
			c[d], at = at, at+m
		}
		shift := p * radixBits
		for i := range events {
			d := (uint64(events[i].Time) - base) >> shift & mask
			spare[c[d]] = events[i]
			c[d]++
		}
		events, spare = spare, events
	}
	for lo := 0; lo < len(events); {
		hi := lo + 1
		for hi < len(events) && events[hi].Time == events[lo].Time {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(events[lo:hi], compareEvents)
		}
		lo = hi
	}
	return events
}

func eventID(e Event) int64 {
	if e.Kind == WorkerArrival {
		return e.Worker.ID
	}
	return e.Request.ID
}

func eventPlatform(e Event) PlatformID {
	if e.Kind == WorkerArrival {
		return e.Worker.Platform
	}
	return e.Request.Platform
}

// Len returns the number of events.
func (s *Stream) Len() int { return len(s.events) }

// Events returns the events in arrival order. The slice is owned by the
// stream and must not be mutated.
func (s *Stream) Events() []Event { return s.events }

// Workers returns the workers in arrival order.
func (s *Stream) Workers() []*Worker {
	var ws []*Worker
	for _, e := range s.events {
		if e.Kind == WorkerArrival {
			ws = append(ws, e.Worker)
		}
	}
	return ws
}

// Requests returns the requests in arrival order.
func (s *Stream) Requests() []*Request {
	var rs []*Request
	for _, e := range s.events {
		if e.Kind == RequestArrival {
			rs = append(rs, e.Request)
		}
	}
	return rs
}

// MaxValue returns the largest request value in the stream, or 0 for a
// stream without requests. RamCOM's threshold theta (Algorithm 3) is
// derived from it; the paper assumes max(v_r) is known a priori.
func (s *Stream) MaxValue() float64 { return s.maxValue }

// MaxWorkerID returns the largest worker ID in the stream, or 0 when no
// worker's ID is positive. Stream runs mint recycled workers' IDs above
// it.
func (s *Stream) MaxWorkerID() int64 { return s.maxWorkerID }

// Platforms returns the sorted set of platform IDs present in the
// stream. The slice is the caller's.
func (s *Stream) Platforms() []PlatformID { return slices.Clone(s.platforms) }

// WorkerEvents builds worker-arrival events from workers, stamping event
// times from each worker's Arrival field.
func WorkerEvents(ws []*Worker) []Event {
	evs := make([]Event, len(ws))
	for i, w := range ws {
		evs[i] = Event{Time: w.Arrival, Kind: WorkerArrival, Worker: w}
	}
	return evs
}

// RequestEvents builds request-arrival events from requests.
func RequestEvents(rs []*Request) []Event {
	evs := make([]Event, len(rs))
	for i, r := range rs {
		evs[i] = Event{Time: r.Arrival, Kind: RequestArrival, Request: r}
	}
	return evs
}
