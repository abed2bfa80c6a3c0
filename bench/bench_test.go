package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/platform"
	"crossmatch/internal/serve"
)

func TestPercentileArithmetic(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {0.95, 3.85}, {1, 4},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", vals, c.p, got, c.want)
		}
	}
	if vals[0] != 4 {
		t.Errorf("percentile sorted its input in place: %v", vals)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("median of one value = %v, want 7", got)
	}
}

// A latency is reduced per pass first (the pass's own percentile) and
// then to the median over passes, so one stalled pass cannot move it.
func TestMedianOfPasses(t *testing.T) {
	// Twenty samples per pass: nineteen at lat, the slowest at 10×lat, so
	// the pass's p50 is lat and its p95 lies between the two.
	samples := func(lat float64) []int64 {
		out := make([]int64, 20)
		for i := range out {
			out[i] = int64(lat * 1e6)
		}
		out[7] = int64(10 * lat * 1e6)
		return out
	}
	var passes []passResult
	for _, p := range []struct{ wall, lat float64 }{{1, 1}, {1, 2}, {2, 3}, {2, 4}, {8, 50}} { // the last pass stalled
		passes = append(passes, passResult{events: 160, wall: time.Duration(p.wall * float64(time.Second)), latNs: samples(p.lat)})
	}
	got := endToEndOf(passes)
	if p := got["decision_p50_ms"]; p.Median != 3 || p.Q1 != 2 || p.Q3 != 4 || p.N != 5 {
		t.Errorf("decision_p50_ms = %+v, want median 3 with quartiles 2 and 4 over 5 passes", p)
	}
	// p95 of twenty samples sits at rank 18.05: lat + 0.05 × 9 lat.
	if p := got["decision_p95_ms"]; math.Abs(p.Median-3*1.45) > 1e-9 {
		t.Errorf("decision_p95_ms = %+v, want the median of the per-pass p95s, 4.35", p)
	}
	// Per-pass throughputs are 160, 160, 80, 80, 20 events/s.
	if e := got["events_per_s"]; e.Median != 80 || e.Q1 != 80 || e.Q3 != 160 {
		t.Errorf("events_per_s = %+v, want median 80 with quartiles 80 and 160", e)
	}
	if s := summarize([]float64{50, 10, 40, 20}); s.Median != 30 || s.N != 4 {
		t.Errorf("median of an even number of passes = %+v, want 30 over 4", s)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Time { return rec.origin.Add(time.Duration(ms) * time.Millisecond) }
	rec.add(spanConn, "", -1, at(0), at(100))
	rec.add(spanCall, spanConn, 0, at(10), at(50))
	rec.add(spanRoute, spanCall, 0, at(15), at(45))
	rec.add(spanServe, spanRoute, 0, at(20), at(30))
	self := rec.selfTimes()
	want := map[string]float64{spanConn: 0.060, spanCall: 0.010, spanRoute: 0.020, spanServe: 0.010}
	total := 0.0
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
		total += self[name]
	}
	if math.Abs(total-0.100) > 1e-9 {
		t.Errorf("self times sum to %v, want the root span's 0.1", total)
	}
}

// requestEvents builds n request arrivals with IDs 1..n.
func requestEvents(n int) []core.Event {
	evs := make([]core.Event, n)
	for i := range evs {
		r := &core.Request{ID: int64(i + 1), Arrival: core.Time(i), Value: 10, Platform: 1}
		evs[i] = core.Event{Time: r.Arrival, Kind: core.RequestArrival, Request: r}
	}
	return evs
}

// The open loop times every event from when it was due. A handler that
// stalls once makes the generator send the following events late; their
// latency must carry that lateness even though their own calls are fast.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	const (
		n       = 12
		rate    = 200.0 // one event every 5 ms
		stallAt = 4     // request ID that stalls
		stall   = 400 * time.Millisecond
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body bytes.Buffer
		_, _ = body.ReadFrom(r.Body)
		id := firstID(body.Bytes())
		if id == stallAt {
			time.Sleep(stall)
		}
		fmt.Fprintf(w, `{"status":"ok","kind":"request","id":%d}`, id)
	}))
	defer srv.Close()

	events := requestEvents(n)
	jobs, err := buildJobs(events, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := runLoad(loadOpts{url: srv.URL, conns: 1, rate: rate, events: events, jobs: jobs,
		expect: map[int64]assignment{}, client: newLoadClient(1)})
	if res.firstErr != nil || res.failed != 0 {
		t.Fatalf("load failed: %d failed, %v", res.failed, res.firstErr)
	}
	for i := range events {
		if res.latNs[i] != res.callNs[i]+res.lateNs[i] {
			t.Errorf("event %d: latency %d != call %d + lateness %d", i, res.latNs[i], res.callNs[i], res.lateNs[i])
		}
	}
	// The schedule itself: event i is due i/rate after the start.
	start := time.Unix(0, 0)
	if got := dueAt(start, 7, rate).Sub(start); got != 35*time.Millisecond {
		t.Errorf("event 7 due %v after start, want 35ms", got)
	}
	after := stallAt // index of the event following the stalled one
	if late := time.Duration(res.lateNs[after]); late < stall/2 {
		t.Errorf("event after the stall was sent %v late, want most of the %v stall", late, stall)
	}
	if call := time.Duration(res.callNs[after]); call > stall/2 {
		t.Errorf("event after the stall took %v on the wire; the stall should only show in its due-time latency", call)
	}
	if lat := time.Duration(res.latNs[after]); lat < stall/2 {
		t.Errorf("event after the stall has due-time latency %v, want it to carry the stall", lat)
	}
	if early := time.Duration(res.lateNs[1]); early > stall/2 {
		t.Errorf("event before the stall was sent %v late", early)
	}
}

// A reply that is not ok, names another event, or disagrees with the
// offline reference counts as failed.
func TestCheckRepliesCountsFailures(t *testing.T) {
	events := requestEvents(3)
	expect := map[int64]assignment{2: {worker: 9, payment: math.Float64bits(1.5)}}
	line := func(d serve.WireDecision) string {
		b, _ := json.Marshal(d)
		return string(b)
	}
	good := line(serve.WireDecision{Status: serve.StatusOK, ID: 1}) + "\n" +
		line(serve.WireDecision{Status: serve.StatusOK, ID: 2, Served: true, WorkerID: 9, Payment: 1.5}) + "\n" +
		line(serve.WireDecision{Status: serve.StatusOK, ID: 3}) + "\n"
	if n, err := checkReplies([]byte(good), events, expect); n != 3 || err != nil {
		t.Fatalf("good reply: %d good, %v", n, err)
	}
	for name, bad := range map[string]serve.WireDecision{
		"shed":         {Status: serve.StatusShed, ID: 2},
		"wrong worker": {Status: serve.StatusOK, ID: 2, Served: true, WorkerID: 8, Payment: 1.5},
		"wrong pay":    {Status: serve.StatusOK, ID: 2, Served: true, WorkerID: 9, Payment: 1.25},
		"unserved":     {Status: serve.StatusOK, ID: 2},
		"wrong id":     {Status: serve.StatusOK, ID: 7, Served: true, WorkerID: 9, Payment: 1.5},
	} {
		body := line(serve.WireDecision{Status: serve.StatusOK, ID: 1}) + "\n" + line(bad) + "\n" +
			line(serve.WireDecision{Status: serve.StatusOK, ID: 3})
		if n, err := checkReplies([]byte(body), events, expect); n != 2 || err == nil {
			t.Errorf("%s: %d good, err %v; want 2 good and an error", name, n, err)
		}
	}
	if n, err := checkReplies([]byte(line(serve.WireDecision{Status: serve.StatusOK, ID: 1})), events, expect); n != 0 || err == nil {
		t.Errorf("short reply: %d good, err %v; want 0 good and an error", n, err)
	}
}

func smallStream(t *testing.T) *core.Stream {
	t.Helper()
	s, err := denseStream("dense1k", 800, 60).generate(5)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// without returns a copy of the result with one assignment left out of
// one platform's matching, Stats untouched — the smallest difference two
// runs can have.
func without(t *testing.T, res *platform.Result, pid core.PlatformID, drop int) *platform.Result {
	t.Helper()
	out := &platform.Result{Platforms: map[core.PlatformID]*platform.PlatformResult{}}
	for id, p := range res.Platforms {
		cp := *p
		cp.Matching = core.NewMatching()
		for i, a := range p.Matching.Assignments() {
			if id == pid && i == drop {
				continue
			}
			if err := cp.Matching.Add(a); err != nil {
				t.Fatal(err)
			}
		}
		out.Platforms[id] = &cp
	}
	return out
}

func TestDigestCatchesOneAssignment(t *testing.T) {
	stream := smallStream(t)
	a, err := reference(stream, platform.AlgDemCOM, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reference(stream, platform.AlgDemCOM, 5)
	if err != nil {
		t.Fatal(err)
	}
	if da, db := digestOf(a), digestOf(b); da != db {
		t.Fatalf("same stream, same seed, different digests:\n  %v\n  %v", da, db)
	}
	if a.Platforms[1].Matching.Len() < 2 {
		t.Fatal("test stream matched too little to drop an assignment")
	}
	// Same counts, same revenue bits, one assignment missing.
	if da, dc := digestOf(a), digestOf(without(t, a, 1, 1)); da == dc {
		t.Errorf("digest did not notice a missing assignment: %v", da)
	} else if da.Matched != dc.Matched || da.RevenueBits != dc.RevenueBits {
		t.Errorf("test altered more than the assignment list: %v vs %v", da, dc)
	}
	// A different seed changes the matching itself.
	c, err := reference(stream, platform.AlgDemCOM, 6)
	if err != nil {
		t.Fatal(err)
	}
	if digestOf(a) == digestOf(c) {
		t.Errorf("digest identical across seeds 5 and 6: %v", digestOf(a))
	}
}

// Batches are runs of consecutive same-kind events: per-kind recorded
// order is preserved and kinds are never coalesced across it.
func TestBatchBuilderKeepsRecordedOrder(t *testing.T) {
	events := smallStream(t).Events()
	const maxBatch = 4
	jobs, err := buildJobs(events, maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for ji, j := range jobs {
		if j.first != next {
			t.Fatalf("job %d starts at event %d, want %d: the jobs must tile the stream in order", ji, j.first, next)
		}
		if j.n < 1 || j.n > maxBatch {
			t.Fatalf("job %d has %d events, cap is %d", ji, j.n, maxBatch)
		}
		lines := bytes.Split(bytes.TrimRight(j.body, "\n"), []byte{'\n'})
		if len(lines) != j.n {
			t.Fatalf("job %d: %d body lines for %d events", ji, len(lines), j.n)
		}
		for k := 0; k < j.n; k++ {
			ev := events[j.first+k]
			if ev.Kind != j.kind {
				t.Fatalf("job %d (%s) holds a %s event at stream index %d", ji, j.kind, ev.Kind, j.first+k)
			}
			var we serve.WireEvent
			if err := json.Unmarshal(lines[k], &we); err != nil {
				t.Fatal(err)
			}
			if we.ID != eventID(ev) {
				t.Fatalf("job %d line %d carries id %d, recorded order has %d", ji, k, we.ID, eventID(ev))
			}
		}
		// A job ends early only where the kind changes.
		if end := j.first + j.n; j.n < maxBatch && end < len(events) && events[end].Kind == j.kind {
			t.Fatalf("job %d stops at %d events though event %d has the same kind", ji, j.n, end)
		}
		next += j.n
	}
	if next != len(events) {
		t.Fatalf("jobs cover %d of %d events", next, len(events))
	}
	singles, err := buildJobs(events[:10], 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range singles {
		if j.n != 1 || bytes.Contains(j.body, []byte{'\n'}) {
			t.Fatalf("maxBatch 1 must give single JSON objects, got %d events %q", j.n, j.body)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in layers.go are
// what the program prints. They must name the same things.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, bench default %d", doc.RunSeconds, defaultSeconds)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d, bench has %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, bench %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, bench has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}
