package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"crossmatch/internal/stats"
)

// StageRow is one (algorithm, stage) line of a Report: how often the
// stage ran and its latency distribution across the retained spans.
type StageRow struct {
	Algorithm string  `json:"algorithm"`
	Stage     string  `json:"stage"`
	Count     int64   `json:"count"`
	MeanUs    float64 `json:"mean_us"`
	P50Us     float64 `json:"p50_us"`
	P90Us     float64 `json:"p90_us"`
	P99Us     float64 `json:"p99_us"`
	MaxUs     float64 `json:"max_us"`
	// Share is the stage's fraction of the algorithm's summed decision
	// time — the "where does the time go" column.
	Share float64 `json:"share"`
}

// Report aggregates the retained spans into per-algorithm, per-stage
// latency distributions (reservoir-sampled percentiles), plus a "total"
// pseudo-stage per algorithm covering whole decisions.
type Report struct {
	Rows []StageRow `json:"rows"`
	// Spans is the number of retained spans aggregated; Dropped counts
	// spans evicted by ring wrap before aggregation.
	Spans   int    `json:"spans"`
	Dropped uint64 `json:"dropped"`
	// Outcomes tallies spans by outcome tag.
	Outcomes map[string]int `json:"outcomes"`
}

// TotalStage is the pseudo-stage name of whole-decision rows.
const TotalStage = "total"

// Report aggregates the retained spans; see Report. A nil tracer
// returns an empty report.
func (t *Tracer) Report() *Report {
	if t == nil {
		return &Report{Outcomes: map[string]int{}}
	}
	spans := t.Spans()
	type key struct {
		alg   string
		stage string
	}
	res := map[key]*stats.Reservoir{}
	totals := map[string]time.Duration{}
	reservoir := func(k key) *stats.Reservoir {
		r, ok := res[k]
		if !ok {
			// Deterministic seed per series keeps report percentiles
			// reproducible for a fixed span set.
			var seed int64
			for _, c := range k.alg + "/" + k.stage {
				seed = seed*131 + int64(c)
			}
			r = stats.NewReservoir(0, seed)
			res[k] = r
		}
		return r
	}
	rep := &Report{Spans: len(spans), Dropped: t.Dropped(), Outcomes: map[string]int{}}
	for i := range spans {
		sp := &spans[i]
		rep.Outcomes[sp.Outcome]++
		reservoir(key{sp.Algorithm, TotalStage}).Observe(time.Duration(sp.Total))
		totals[sp.Algorithm] += time.Duration(sp.Total)
		for _, l := range sp.Stages {
			reservoir(key{sp.Algorithm, l.Stage}).Observe(time.Duration(l.Dur))
		}
	}

	qs := []float64{0.50, 0.90, 0.99}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for k, r := range res {
		q := r.Quantiles(qs)
		share := 0.0
		if tot := totals[k.alg]; tot > 0 {
			share = float64(r.Sum()) / float64(tot)
		}
		rep.Rows = append(rep.Rows, StageRow{
			Algorithm: k.alg,
			Stage:     k.stage,
			Count:     r.Count(),
			MeanUs:    us(r.Mean()),
			P50Us:     us(q[0]),
			P90Us:     us(q[1]),
			P99Us:     us(q[2]),
			MaxUs:     us(r.Max()),
			Share:     share,
		})
	}
	// Rows run in stage (decision) order within an algorithm, the
	// total pseudo-stage last.
	order := map[string]int{TotalStage: int(numStages)}
	for s := Stage(0); s < numStages; s++ {
		order[s.String()] = int(s)
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		return order[a.Stage] < order[b.Stage]
	})
	return rep
}

// Table renders the report as a stats.Table (aligned text or CSV).
func (rep *Report) Table() *stats.Table {
	title := fmt.Sprintf("Decision stage latencies (%d spans", rep.Spans)
	if rep.Dropped > 0 {
		title += fmt.Sprintf(", %d evicted by ring wrap", rep.Dropped)
	}
	title += ")"
	t := stats.NewTable(title,
		"Algorithm", "Stage", "Count", "Mean(us)", "p50(us)", "p90(us)", "p99(us)", "Max(us)", "Share")
	f := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	for _, row := range rep.Rows {
		share := "-"
		if row.Stage != TotalStage {
			share = fmt.Sprintf("%.0f%%", row.Share*100)
		}
		t.Add(row.Algorithm, row.Stage, fmt.Sprintf("%d", row.Count),
			f(row.MeanUs), f(row.P50Us), f(row.P90Us), f(row.P99Us), f(row.MaxUs), share)
	}
	return t
}

// WriteText renders the report table as aligned text.
func (rep *Report) WriteText(w io.Writer) error { return rep.Table().Render(w) }
