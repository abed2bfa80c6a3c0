package core

import (
	"cmp"
	"fmt"
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
	platforms []PlatformID // ascending, distinct
	maxValue  float64
}

// note folds one event into the stream's platform set and largest
// request value.
func (s *Stream) note(e Event) {
	if e.Kind == RequestArrival {
		s.maxValue = max(s.maxValue, e.Request.Value)
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
// then by ID for determinism.
func NewStream(events []Event) (*Stream, error) {
	return NewStreamOwned(append([]Event(nil), events...))
}

// NewStreamOwned is NewStream taking ownership of the slice: events are
// validated and sorted in place, with no defensive copy. For callers
// that build the slice themselves and never touch it again — the
// generators, chiefly — this halves the peak event memory of a
// 10M-event scaling city.
//
// The order is the stable sort by (time, kind, ID) for every input,
// equal keys included, built without reflection: slices.SortFunc over a
// 16-byte (time, kind, input index) key per event — the index as last
// tiebreak makes the order total, so the unstable sort is the stable
// one — then the events move into place along the permutation's cycles.
func NewStreamOwned(events []Event) (*Stream, error) {
	s := &Stream{events: events}
	keys := make([]sortKey, len(events))
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		s.note(events[i])
		keys[i] = sortKey{events[i].Time, uint64(events[i].Kind)<<idxBits | uint64(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.time != b.time {
			return cmp.Compare(a.time, b.time)
		}
		if (a.kindIdx^b.kindIdx)>>idxBits == 0 { // same kind: ID decides before the index
			if c := cmp.Compare(eventID(events[a.idx()]), eventID(events[b.idx()])); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.kindIdx, b.kindIdx)
	})
	// keys[i].idx() is where position i's event sits now. Walk each cycle
	// once, marking a filled position by pointing its key at itself.
	for i := range keys {
		if keys[i].idx() == i {
			continue
		}
		first, j := events[i], i
		for src := keys[i].idx(); src != i; j, src = src, keys[src].idx() {
			events[j] = events[src]
			keys[j].kindIdx = uint64(j)
		}
		events[j], keys[j].kindIdx = first, uint64(j)
	}
	return s, nil
}

// sortKey stands in for an event while sorting: its time, and its kind
// packed above its input index so one compare orders both.
type sortKey struct {
	time    Time
	kindIdx uint64
}

const idxBits = 56

func (k sortKey) idx() int { return int(k.kindIdx & (1<<idxBits - 1)) }

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

// FilterPlatform returns the sub-stream of events belonging to the given
// platform.
func (s *Stream) FilterPlatform(p PlatformID) *Stream {
	out := &Stream{}
	for _, e := range s.events {
		if eventPlatform(e) == p {
			out.events = append(out.events, e)
			out.note(e)
		}
	}
	return out
}

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
