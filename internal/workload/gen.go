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
	// arrival times, each drawn on its own, uniformly over the horizon,
	// so one worker's appearances come in no particular order. Default 1
	// (one-shot workers).
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

// floatArena carves history slices out of shared blocks of floatBlock
// values, one heap allocation for hundreds of histories. Histories are
// immutable after generation, so full-capacity sub-slices (no room to
// grow into a neighbour) are safe to share a backing array.
type floatArena struct{ buf []float64 }

const floatBlock = 1 << 16

func (a *floatArena) take(n int) []float64 {
	if n == 0 {
		return nil
	}
	if len(a.buf) < n {
		a.buf = make([]float64, max(floatBlock, n))
	}
	s := a.buf[:n:n]
	a.buf = a.buf[n:]
	return s
}

// ReorderUniform returns a copy of the stream whose entities keep their
// locations, values, radii and histories but receive fresh arrival times
// drawn uniformly over [0, 4 × events) — one sample from the random
// order model of Definition 2.8. That is Generate's default horizon only
// for a stream of one-shot workers: Generate counts a physical worker
// once however often it appears, so a stream with Appearances > 1 is
// spread here over a longer horizon than it was generated on. Workers
// are drawn first, then requests, each kind in stream order. Entities
// are cloned, so the original stream is untouched.
func ReorderUniform(s *core.Stream, seed int64) (*core.Stream, error) {
	rng := rand.New(rand.NewSource(seed))
	horizon := int64(4 * s.Len())
	if horizon == 0 {
		horizon = 1
	}
	nWorkers := 0
	for _, e := range s.Events() {
		if e.Kind == core.WorkerArrival {
			nWorkers++
		}
	}
	workers := make([]core.Worker, 0, nWorkers)
	requests := make([]core.Request, 0, s.Len()-nWorkers)
	for _, e := range s.Events() {
		if e.Kind == core.WorkerArrival {
			cl := *e.Worker
			cl.History = append([]float64(nil), cl.History...)
			cl.Arrival = core.Time(rng.Int63n(horizon))
			workers = append(workers, cl)
		}
	}
	for _, e := range s.Events() {
		if e.Kind == core.RequestArrival {
			cl := *e.Request
			cl.Arrival = core.Time(rng.Int63n(horizon))
			requests = append(requests, cl)
		}
	}
	return core.NewStreamPacked(workers, requests)
}

// sortHistory puts a history in ascending order: by insertion for the
// generator's 20 to 60 values, where it is about twice as fast as
// slices.Sort, and by slices.Sort above insertionMax. Both give the same
// slice for positive finite values, the only ones a history holds.
func sortHistory(h []float64) {
	const insertionMax = 64
	if len(h) > insertionMax {
		slices.Sort(h)
		return
	}
	for i := 1; i < len(h); i++ {
		v, j := h[i], i
		for ; j > 0 && h[j-1] > v; j-- {
			h[j] = h[j-1]
		}
		h[j] = v
	}
}

// sortHistories sorts the history of every worker range it receives,
// once per physical worker (its appearances are adjacent and share one
// slice), and closes done when ranges is closed. It reads and writes
// only history values, which no draw reads, so when it runs cannot
// reach a bit of the stream.
func sortHistories(ranges <-chan []core.Worker, done chan<- struct{}) {
	var last *float64
	for ws := range ranges {
		for i := range ws {
			h := ws[i].History
			if len(h) == 0 || &h[0] == last {
				continue
			}
			last = &h[0]
			sortHistory(h)
		}
	}
	close(done)
}

// Generate builds the arrival stream. Deterministic given seed: entity
// IDs are assigned per platform in blocks, locations/values/arrival
// ticks drawn from one root generator.
//
// Definition 3.1 reads a history in order, so each is put in order here,
// once per physical worker and after every draw: pricing.MakeHistory
// then shares the slice at each arrival of each run instead of copying
// and sorting it. A helper goroutine sorts a platform's histories while
// this one draws the platform's requests, and is waited for before the
// stream is built.
func Generate(cfg Config, seed int64) (*core.Stream, error) {
	if len(cfg.Platforms) == 0 {
		return nil, fmt.Errorf("workload: no platforms configured")
	}
	totalArrivals := 0
	totalWorkers, totalRequests := 0, 0
	for i := range cfg.Platforms {
		s := &cfg.Platforms[i]
		if err := s.validate(); err != nil {
			return nil, err
		}
		totalArrivals += s.Requests + s.Workers
		totalWorkers += s.Workers * max(s.Appearances, 1)
		totalRequests += s.Requests
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = core.Time(4 * totalArrivals)
		if horizon == 0 {
			horizon = 1
		}
	}

	rng := rand.New(rand.NewSource(seed))
	// Each payload is written once, into the slab the stream keeps.
	workers := make([]core.Worker, 0, totalWorkers)
	requests := make([]core.Request, 0, totalRequests)
	var hists floatArena
	nextWorkerID := int64(1)
	nextRequestID := int64(1)
	// The slab never grows past its capacity, so the ranges the helper
	// reads are never moved by the appends after them. One buffered send
	// per platform: drawing never waits for the helper.
	ranges, done := make(chan []core.Worker, len(cfg.Platforms)), make(chan struct{})
	go sortHistories(ranges, done)

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
		first := len(workers)
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
			// One physical worker: `appearances` pool joins, each at a time
			// and a location of its own, sharing the acceptance history.
			for a := 0; a < appearances; a++ {
				workers = append(workers, core.Worker{
					ID:       nextWorkerID,
					Arrival:  core.Time(rng.Int63n(int64(horizon))),
					Loc:      workerSpatial.Sample(rng),
					Radius:   s.Radius,
					Platform: s.ID,
					History:  hist,
				})
				nextWorkerID++
			}
		}
		ranges <- workers[first:]
		for j := 0; j < s.Requests; j++ {
			requests = append(requests, core.Request{
				ID:       nextRequestID,
				Arrival:  core.Time(rng.Int63n(int64(horizon))),
				Loc:      s.RequestSpatial.Sample(rng),
				Value:    s.Values.Sample(rng),
				Platform: s.ID,
			})
			nextRequestID++
		}
	}
	close(ranges)
	<-done
	return core.NewStreamPacked(workers, requests)
}
