package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names: one per boundary the harness can reach from outside. A
// span's parent is the span of the enclosing boundary with the same id.
const (
	spanConn          = "loadgen.conn"   // one connection goroutine, pass start to pass end
	spanCall          = "client.call"    // one POST, request written to reply parsed
	spanRoute         = "route.handler"  // around Router.Handler()
	spanServe         = "serve.handler"  // around Server.Handler()
	spanEngineRequest = "engine.request" // Engine.Process of a request arrival
	spanEngineWorker  = "engine.worker"  // Engine.Process of a worker arrival
	spanEnginePass    = "engine.pass"    // the event loop of an engine pass
)

// span is one recorded interval. id is the event's index in the
// workload's stream (for a batch POST, the index of its first event),
// the identifier every span of one request shares.
type span struct {
	name, parent string
	id           int64
	start, end   int64 // ns since the recorder's origin
}

// recorder keeps spans in memory and writes them out when the
// benchmark ends. A nil recorder records nothing, which is the
// untraced run.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records one span; parent names the enclosing span ("" for a root).
func (r *recorder) add(name, parent string, id int64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{name: name, parent: parent, id: id, start: int64(start.Sub(r.origin)), end: int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// totals returns the summed duration (seconds) and count per span name.
func (r *recorder) totals() (sum map[string]float64, n map[string]int) {
	sum, n = map[string]float64{}, map[string]int{}
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		sum[s.name] += float64(s.end-s.start) / 1e9
		n[s.name]++
	}
	return
}

// selfTimes returns each span name's self time in seconds: its summed
// duration minus the summed duration of the spans it directly encloses.
func (r *recorder) selfTimes() map[string]float64 {
	self := map[string]float64{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		d := float64(s.end-s.start) / 1e9
		self[s.name] += d
		if s.parent != "" {
			self[s.parent] -= d
		}
	}
	return self
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"id\":%d,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%q}\n",
			s.name, s.id, s.start, s.end, s.parent)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// budget is the per-workload table of the traced run: one row per
// layer, residuals included, whose rows add up to the client-measured
// wall. Rows are stored in connection-seconds and printed divided by
// the connection count, so that the column sums to the pass wall.
type budget struct {
	workload string
	wall     float64 // client-measured pass wall, seconds
	conns    float64
	rows     []budgetRow
}

type budgetRow struct {
	layer   string
	seconds float64 // connection-seconds
	how     string
}

func (b *budget) add(layer string, connSeconds float64, how string) {
	b.rows = append(b.rows, budgetRow{layer, connSeconds, how})
}

// sum returns the rows' total in wall seconds.
func (b *budget) sum() float64 {
	t := 0.0
	for _, r := range b.rows {
		t += r.seconds
	}
	return t / b.conns
}

func (b *budget) print(w io.Writer, events int) {
	fmt.Fprintf(w, "budget %s: client wall %.3f s over %d events, %g connection(s)\n", b.workload, b.wall, events, b.conns)
	fmt.Fprintf(w, "  %-22s %10s %7s %12s  %s\n", "layer (self time)", "wall s", "share", "µs/event", "how")
	for _, r := range b.rows {
		s := r.seconds / b.conns
		fmt.Fprintf(w, "  %-22s %10.4f %6.1f%% %12.3f  %s\n", r.layer, s, 100*ratio(s, b.wall), 1e6*ratio(s, float64(events)), r.how)
	}
	fmt.Fprintf(w, "  %-22s %10.4f %6.1f%%\n", "sum", b.sum(), 100*ratio(b.sum(), b.wall))
}
