package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"crossmatch/internal/core"
)

// PlatformSpec describes one platform's share of a generated stream.
type PlatformSpec struct {
	ID       core.PlatformID
	Requests int
	Workers  int
	// Radius is every worker's service radius in km (Table III/IV use a
	// single radius per dataset).
	Radius float64
	// RequestSpatial and WorkerSpatial draw locations; when WorkerSpatial
	// is nil, workers share the request model (the common case — workers
	// gravitate to demand).
	RequestSpatial SpatialModel
	WorkerSpatial  SpatialModel
	// Values draws request values.
	Values ValueModel
	// HistoryValues, when set, draws worker history values i.i.d. from
	// this model. When nil, the generator uses the reservation-price
	// scheme: each worker gets a personal price anchor at
	// DefaultFrugality times the platform's typical request value
	// (jittered ±20% across workers), and its history scatters ±25%
	// around that anchor. Tight per-worker histories make the
	// Definition 3.1 acceptance curve steep, which is what yields the
	// paper's signature DemCOM behaviour: minimum payments around 70%
	// of the request value accepted only ~15-20% of the time.
	HistoryValues ValueModel
	// HistoryMin/HistoryMax bound the per-worker history length N of
	// Definition 3.1 (inclusive). Defaults 20..60 when both zero.
	HistoryMin, HistoryMax int
	// Appearances is how many times each physical worker joins the
	// waiting list over the horizon (a driver returns to the pool after
	// completing each trip; the paper models each return as a fresh
	// worker vertex — its Table V OFF row serves all 91,321 requests
	// with 9,145 workers, which is only possible if workers appear
	// repeatedly). Workers stays the count of physical workers; each
	// generates Appearances worker vertices with fresh locations and
	// increasing arrival times. Default 1 (one-shot workers).
	Appearances int
}

// DefaultFrugality anchors worker reservation prices relative to the
// platform's typical request value: histories record the cheaper
// requests workers actually completed in the past, which calibrates the
// ~0.7 outer-payment rate the paper reports for DemCOM.
const DefaultFrugality = 0.75

func (s *PlatformSpec) validate() error {
	switch {
	case s.ID == core.NoPlatform:
		return fmt.Errorf("workload: platform spec missing ID")
	case s.Requests < 0 || s.Workers < 0:
		return fmt.Errorf("workload: platform %d: negative counts", s.ID)
	case s.Radius <= 0:
		return fmt.Errorf("workload: platform %d: radius %v must be positive", s.ID, s.Radius)
	case s.RequestSpatial == nil:
		return fmt.Errorf("workload: platform %d: missing request spatial model", s.ID)
	case s.Values == nil:
		return fmt.Errorf("workload: platform %d: missing value model", s.ID)
	case s.HistoryMin < 0 || s.HistoryMax < s.HistoryMin:
		return fmt.Errorf("workload: platform %d: bad history bounds [%d, %d]", s.ID, s.HistoryMin, s.HistoryMax)
	case s.Appearances < 0:
		return fmt.Errorf("workload: platform %d: negative appearances %d", s.ID, s.Appearances)
	default:
		return nil
	}
}

// Config describes a full multi-platform stream.
type Config struct {
	Platforms []PlatformSpec
	// Horizon is the number of arrival ticks the stream spans; arrivals
	// are placed uniformly at random over [0, Horizon). Defaults to
	// 4 * total arrivals when zero (sparse enough that ties are rare).
	Horizon core.Time
}

// MaxValue returns the largest value bound across platforms — the
// max(v_r) that RamCOM and Greedy-RT assume known a priori.
func (c *Config) MaxValue() float64 {
	maxV := 0.0
	for i := range c.Platforms {
		if v := c.Platforms[i].Values.Max(); v > maxV {
			maxV = v
		}
	}
	return maxV
}

// typicalValue estimates a value model's central tendency by averaging a
// fixed number of samples (model-agnostic; used to anchor worker
// reservation prices).
func typicalValue(m ValueModel, rng *rand.Rand) float64 {
	const n = 64
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += m.Sample(rng)
	}
	return sum / n
}

// arenaChunk sizes the generator's allocation arenas. Entities are
// handed out as pointers into fixed chunks, so one heap allocation
// amortizes over arenaChunk entities instead of costing one each — at
// scaling-city sizes (1M workers, 10M events) per-entity allocation
// dominates generation time and fragments the heap.
const arenaChunk = 4096

// arena hands out pointers into fixed-size chunks. Pointers stay valid
// forever: a chunk is never reallocated, only consumed.
type arena[T any] struct{ chunk []T }

func (a *arena[T]) next() *T {
	if len(a.chunk) == 0 {
		a.chunk = make([]T, arenaChunk)
	}
	p := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return p
}

// floatArena carves history slices out of shared blocks. Histories are
// immutable after generation, so full-capacity sub-slices (no room to
// grow into a neighbour) are safe to share a backing array.
type floatArena struct{ buf []float64 }

func (a *floatArena) take(n int) []float64 {
	if n == 0 {
		return nil
	}
	if len(a.buf) < n {
		size := 16 * arenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]float64, size)
	}
	s := a.buf[:n:n]
	a.buf = a.buf[n:]
	return s
}

// ReorderUniform returns a copy of the stream whose entities keep their
// locations, values, radii and histories but receive fresh arrival times
// drawn uniformly over the same horizon — one sample from the random
// order model of Definition 2.8. Entities are cloned, so the original
// stream is untouched.
func ReorderUniform(s *core.Stream, seed int64) (*core.Stream, error) {
	rng := rand.New(rand.NewSource(seed))
	horizon := int64(4 * s.Len())
	if horizon == 0 {
		horizon = 1
	}
	events := make([]core.Event, 0, s.Len())
	for _, w := range s.Workers() {
		cl := *w
		cl.History = append([]float64(nil), w.History...)
		cl.Arrival = core.Time(rng.Int63n(horizon))
		events = append(events, core.Event{Time: cl.Arrival, Kind: core.WorkerArrival, Worker: &cl})
	}
	for _, r := range s.Requests() {
		cl := *r
		cl.Arrival = core.Time(rng.Int63n(horizon))
		events = append(events, core.Event{Time: cl.Arrival, Kind: core.RequestArrival, Request: &cl})
	}
	return core.NewStreamPacked(events)
}

// Generate builds the arrival stream. Deterministic given seed: entity
// IDs are assigned per platform in blocks, locations/values/arrival
// ticks drawn from one root generator.
func Generate(cfg Config, seed int64) (*core.Stream, error) {
	if len(cfg.Platforms) == 0 {
		return nil, fmt.Errorf("workload: no platforms configured")
	}
	totalArrivals := 0
	totalEvents := 0
	for i := range cfg.Platforms {
		s := &cfg.Platforms[i]
		if err := s.validate(); err != nil {
			return nil, err
		}
		totalArrivals += s.Requests + s.Workers
		app := s.Appearances
		if app == 0 {
			app = 1
		}
		totalEvents += s.Requests + s.Workers*app
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = core.Time(4 * totalArrivals)
		if horizon == 0 {
			horizon = 1
		}
	}

	rng := rand.New(rand.NewSource(seed))
	events := make([]core.Event, 0, totalEvents)
	var workers arena[core.Worker]
	var requests arena[core.Request]
	var hists floatArena
	nextWorkerID := int64(1)
	nextRequestID := int64(1)

	for i := range cfg.Platforms {
		s := cfg.Platforms[i]
		workerSpatial := s.WorkerSpatial
		if workerSpatial == nil {
			workerSpatial = s.RequestSpatial
		}
		histMin, histMax := s.HistoryMin, s.HistoryMax
		if histMin == 0 && histMax == 0 {
			histMin, histMax = 20, 60
		}
		var typical float64
		if s.HistoryValues == nil {
			typical = typicalValue(s.Values, rng)
		}

		appearances := s.Appearances
		if appearances == 0 {
			appearances = 1
		}
		for j := 0; j < s.Workers; j++ {
			n := histMin
			if histMax > histMin {
				n += rng.Intn(histMax - histMin + 1)
			}
			hist := hists.take(n)
			if s.HistoryValues != nil {
				for k := range hist {
					hist[k] = s.HistoryValues.Sample(rng)
				}
			} else {
				anchor := typical * DefaultFrugality * (0.8 + 0.4*rng.Float64())
				for k := range hist {
					hist[k] = anchor * (0.75 + 0.5*rng.Float64())
				}
			}
			// Definition 3.1 reads a history in order, so it is put in
			// order here, once per physical worker and after every draw:
			// pricing.MakeHistory then shares the slice at each arrival
			// of each run instead of copying and sorting it.
			slices.Sort(hist)
			// One physical worker: `appearances` pool joins at increasing
			// times and fresh locations, sharing the acceptance history.
			for a := 0; a < appearances; a++ {
				w := workers.next()
				*w = core.Worker{
					ID:       nextWorkerID,
					Arrival:  core.Time(rng.Int63n(int64(horizon))),
					Loc:      workerSpatial.Sample(rng),
					Radius:   s.Radius,
					Platform: s.ID,
					History:  hist,
				}
				nextWorkerID++
				events = append(events, core.Event{Time: w.Arrival, Kind: core.WorkerArrival, Worker: w})
			}
		}
		for j := 0; j < s.Requests; j++ {
			r := requests.next()
			*r = core.Request{
				ID:       nextRequestID,
				Arrival:  core.Time(rng.Int63n(int64(horizon))),
				Loc:      s.RequestSpatial.Sample(rng),
				Value:    s.Values.Sample(rng),
				Platform: s.ID,
			}
			nextRequestID++
			events = append(events, core.Event{Time: r.Arrival, Kind: core.RequestArrival, Request: r})
		}
	}
	return core.NewStreamPacked(events)
}
