package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
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
// no defensive copy, and the stream keeps the slice, sorted in place.
// The payloads stay the caller's (see NewStreamPacked).
//
// The order is the stable sort by (time, kind, ID) for every input,
// equal keys included, done by sortArrivals, the one sort of arrivals in
// the repository. Input already in that order — a sub-stream of a
// stream — is kept as it stands.
func NewStreamOwned(events []Event) (*Stream, error) {
	s := &Stream{events: events}
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		s.note(events[i])
	}
	sortArrivals(events)
	return s, nil
}

// NewStreamPacked builds a stream over payloads the builder owns and
// hands over: it allocated both slabs itself and keeps no pointer into
// them. Every payload is validated as Event.Validate would, each slab is
// sorted in place into the stable (arrival, ID) order, and the events
// are the merge of the two, workers first on equal ticks — the order
// NewStreamOwned gives the same arrivals. The stream keeps the slabs, so
// a consumer walking Events() reads payload memory front to back instead
// of taking a cache miss per event, and each payload is written once.
// History slices are shared, not copied: a physical worker's appearances
// keep one history.
func NewStreamPacked(workers []Worker, requests []Request) (*Stream, error) {
	s := &Stream{}
	for i := range workers {
		if err := workers[i].Validate(); err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		s.note(Event{Kind: WorkerArrival, Worker: &workers[i]})
	}
	for i := range requests {
		if err := requests[i].Validate(); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		s.note(Event{Kind: RequestArrival, Request: &requests[i]})
	}
	sortArrivals(workers)
	sortArrivals(requests)
	s.events = make([]Event, len(workers)+len(requests))
	mergeArrivals(s.events, workers, requests)
	return s, nil
}

// arrival is what sortArrivals reads of an element: a payload of either
// kind, or an event that points at one.
type arrival[T any] interface {
	*T
	// at returns the arrival time.
	at() Time
	// tie orders two arrivals at the same time: by ID, after kind for an
	// event.
	tie(*T) int
}

func (w *Worker) at() Time          { return w.Arrival }
func (w *Worker) tie(o *Worker) int { return cmp.Compare(w.ID, o.ID) }

func (r *Request) at() Time           { return r.Arrival }
func (r *Request) tie(o *Request) int { return cmp.Compare(r.ID, o.ID) }

func (e *Event) at() Time { return e.Time }
func (e *Event) tie(o *Event) int {
	if c := cmp.Compare(e.Kind, o.Kind); c != 0 {
		return c
	}
	return cmp.Compare(eventID(*e), eventID(*o))
}

// mergeArrivals writes into events, which holds exactly len(workers) +
// len(requests) slots, the merge of the two slabs, each in (arrival, ID)
// order: the (time, kind, ID) order, workers first on equal ticks.
func mergeArrivals(events []Event, workers []Worker, requests []Request) {
	i, j := 0, 0
	for k := range events {
		if i < len(workers) && (j == len(requests) || workers[i].Arrival <= requests[j].Arrival) {
			events[k] = Event{Time: workers[i].Arrival, Kind: WorkerArrival, Worker: &workers[i]}
			i++
		} else {
			events[k] = Event{Time: requests[j].Arrival, Kind: RequestArrival, Request: &requests[j]}
			j++
		}
	}
}

// radixBits is the digit width of sortArrivals: two passes cover the
// 1.6M-tick span of a 400k-event city, and 2048 counters a pass stay in
// the first-level cache.
const radixBits = 11

// sortArrivals sorts xs in place into the stable order by time, then
// tie: (arrival, ID) for a slab of payloads, (time, kind, ID) for
// events. It is the one sort of arrivals in the repository.
//
// Each element gets an 8-byte key, (time − least time) << 32 | index.
// An LSD radix sort of the keys on the time bits that vary leaves equal
// times in index order, and the keys' index bits are then the
// permutation, applied to xs in place by walking its cycles, so each
// element moves once. A stable sort by tie finishes each run of equal
// times, two or three elements at a time when, as in a generated
// stream, the ticks outnumber the arrivals. A time span or a length that
// does not fit in 32 bits takes a comparison sort of bare indices
// instead, and the same walk. Input already in order is left as it is.
func sortArrivals[T any, P arrival[T]](xs []T) {
	if len(xs) < 2 {
		return
	}
	minT := P(&xs[0]).at()
	maxT, sorted := minT, true
	for i, prev := 1, minT; i < len(xs); i++ {
		t := P(&xs[i]).at()
		minT, maxT = min(minT, t), max(maxT, t)
		sorted = sorted && (t > prev || t == prev && P(&xs[i-1]).tie(&xs[i]) <= 0)
		prev = t
	}
	if sorted {
		return
	}
	index := uint64(1<<32 - 1) // the index bits of a key
	// Times sort as unsigned offsets from minT: the subtraction wraps,
	// so a span of the whole int64 range still comes out right.
	base := uint64(minT)
	span := uint64(maxT) - base
	radix := span <= index && uint64(len(xs)) <= index
	var keys []uint64
	if radix {
		// One allocation: the keys, then the radix sort's spare buffer.
		both := make([]uint64, 2*len(xs))
		keys = both[:len(xs)]
		for i := range xs {
			keys[i] = (uint64(P(&xs[i]).at())-base)<<32 | uint64(i)
		}
		keys = radixSortHigh(keys, both[len(xs):], bits.Len64(span))
	} else {
		keys = make([]uint64, len(xs))
		index = math.MaxUint64
		for i := range keys {
			keys[i] = uint64(i)
		}
		slices.SortFunc(keys, func(a, b uint64) int {
			if c := cmp.Compare(P(&xs[a]).at(), P(&xs[b]).at()); c != 0 {
				return c
			}
			if c := P(&xs[a]).tie(&xs[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	// Position i takes the element at keys[i]'s index. Walk each cycle of
	// that permutation once, marking a done position by pointing its key
	// at itself; the time bits stay for the runs below.
	for i := range keys {
		if keys[i]&index == uint64(i) {
			continue
		}
		held := xs[i]
		j := i
		for {
			from := int(keys[j] & index)
			keys[j] = keys[j]&^index | uint64(j)
			if from == i {
				xs[j] = held
				break
			}
			xs[j] = xs[from]
			j = from
		}
	}
	if !radix {
		return
	}
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi]>>32 == keys[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			sortTies[T, P](xs[lo:hi])
		}
		lo = hi
	}
}

// sortTies is the stable sort of one run of equal times by tie: by
// insertion for the few elements a run of a generated stream holds, by
// sort.Stable above that.
func sortTies[T any, P arrival[T]](run []T) {
	const insertionMax = 12
	if len(run) > insertionMax {
		sort.Stable(tieOrder[T, P](run))
		return
	}
	for k := 1; k < len(run); k++ {
		for m := k; m > 0 && P(&run[m]).tie(&run[m-1]) < 0; m-- {
			run[m], run[m-1] = run[m-1], run[m]
		}
	}
}

// tieOrder is a run of equal times as a sort.Interface, ordered by tie.
type tieOrder[T any, P arrival[T]] []T

func (o tieOrder[T, P]) Len() int           { return len(o) }
func (o tieOrder[T, P]) Less(i, j int) bool { return P(&o[i]).tie(&o[j]) < 0 }
func (o tieOrder[T, P]) Swap(i, j int)      { o[i], o[j] = o[j], o[i] }

// radixMaxPasses is how many radixBits digits cover the 32 time bits of
// a key.
const radixMaxPasses = (32 + radixBits - 1) / radixBits

// radixSortHigh sorts keys by their bits 32 to 32+width, width ≤ 32, an
// LSD radix sort that keeps keys with equal such bits in input order.
// spare is a buffer of keys' length. It returns the sorted keys, in
// keys' array or in spare's, whichever the last pass wrote.
func radixSortHigh(keys, spare []uint64, width int) []uint64 {
	const mask = 1<<radixBits - 1
	passes := (width + radixBits - 1) / radixBits
	if passes == 0 {
		return keys
	}
	// The counters live on the stack: every pass's, 48 KB at most.
	var table [radixMaxPasses << radixBits]int
	counts := table[:passes<<radixBits]
	for _, k := range keys {
		d := k >> 32
		for c := counts; len(c) > 0; c, d = c[1<<radixBits:], d>>radixBits {
			c[d&mask]++
		}
	}
	for p := 0; p < passes; p++ {
		c := counts[p<<radixBits : (p+1)<<radixBits]
		at := 0
		for d, m := range c {
			c[d], at = at, at+m
		}
		shift := 32 + p*radixBits
		for _, k := range keys {
			d := k >> shift & mask
			spare[c[d]] = k
			c[d]++
		}
		keys, spare = spare, keys
	}
	return keys
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
