package workload

import (
	"fmt"
	"io"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/index"
)

// Diagnosis quantifies the cross-platform structure of a stream: how
// much of each platform's fleet can never serve its own demand (the
// stranded capacity COM monetizes) and how much of it could serve some
// other platform's demand instead.
type Diagnosis struct {
	Platform core.PlatformID
	Workers  int // worker arrivals (waiting-list joins)
	Requests int
	// StrandedOwn counts worker arrivals whose range covers none of the
	// platform's own requests arriving after them.
	StrandedOwn int
	// Rescuable counts the StrandedOwn workers that could serve at
	// least one other platform's request (the hub's raw material).
	Rescuable int
}

// StrandedFraction is StrandedOwn / Workers (0 with no workers).
func (d Diagnosis) StrandedFraction() float64 {
	if d.Workers == 0 {
		return 0
	}
	return float64(d.StrandedOwn) / float64(d.Workers)
}

// Diagnose computes the per-platform stranded-capacity diagnosis of a
// stream. It is the empirical check behind DESIGN.md §8's calibration:
// the paper's evaluation shapes require a meaningful stranded fraction
// at every request volume. Cost is one spatial-index query per worker.
func Diagnose(s *core.Stream) []Diagnosis {
	// Index requests per platform. The coverage question runs in the
	// flipped direction ("which requests lie within this worker's
	// disk?"), so each request is indexed with the stream's maximum
	// radius and candidates are filtered exactly with core.CanServe.
	requests := s.Requests()
	perPlatform := map[core.PlatformID]*index.SlotGrid{}
	maxRadius := index.DefaultCell
	for _, w := range s.Workers() {
		if w.Radius > maxRadius {
			maxRadius = w.Radius
		}
	}
	for ri, r := range requests {
		g := perPlatform[r.Platform]
		if g == nil {
			g = index.NewSlotGrid(maxRadius)
			perPlatform[r.Platform] = g
		}
		// The worker-side query uses its own disk, so flip the roles:
		// index the request with the MAX radius so a query at the worker
		// location returns every request within maxRadius (as its slot,
		// the request's position in requests), then filter exactly.
		g.Insert(index.Entry{ID: int64(ri), Circle: geo.Circle{Center: r.Loc, Radius: maxRadius}}, int32(ri))
	}

	out := map[core.PlatformID]*Diagnosis{}
	for _, pid := range s.Platforms() {
		out[pid] = &Diagnosis{Platform: pid}
	}
	for _, r := range requests {
		out[r.Platform].Requests++
	}

	var buf []int32
	canServeAny := func(w *core.Worker, pid core.PlatformID) bool {
		g := perPlatform[pid]
		if g == nil {
			return false
		}
		buf = g.AppendSlots(buf[:0], w.Loc)
		for _, ri := range buf {
			if core.CanServe(w, requests[ri]) {
				return true
			}
		}
		return false
	}

	platforms := s.Platforms()
	for _, w := range s.Workers() {
		d := out[w.Platform]
		d.Workers++
		if canServeAny(w, w.Platform) {
			continue
		}
		d.StrandedOwn++
		for _, pid := range platforms {
			if pid != w.Platform && canServeAny(w, pid) {
				d.Rescuable++
				break
			}
		}
	}

	res := make([]Diagnosis, 0, len(platforms))
	for _, pid := range platforms {
		res = append(res, *out[pid])
	}
	return res
}

// WriteDiagnosis renders the diagnosis as text (used by comgen).
func WriteDiagnosis(w io.Writer, ds []Diagnosis) error {
	for _, d := range ds {
		if _, err := fmt.Fprintf(w,
			"platform %d: %d worker arrivals, %d requests; stranded %d (%.1f%%), rescuable by others %d\n",
			d.Platform, d.Workers, d.Requests, d.StrandedOwn,
			100*d.StrandedFraction(), d.Rescuable); err != nil {
			return err
		}
	}
	return nil
}
