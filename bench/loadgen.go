package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/serve"
)

// The bench owns its load generator instead of using serve.RunLoad:
// that one is product code a later PR may change, samples latencies
// into a reservoir, and times open-loop calls from send rather than
// from when they were due. This one keeps exact per-event latencies,
// records lateness, and never opens more than maxConns connections.
const (
	maxConns = 2
	// watchdog is the longest the generator waits for a decision; a POST
	// that has no reply by then counts as failed and ends the pass.
	watchdog = 5 * time.Second
)

// job is one POST: a run of consecutive same-kind events, in recorded
// order. Kinds are never coalesced across the recorded order: in replay
// mode a request batch waits on every earlier worker arrival, so a
// worker parked in a not-yet-full batch behind it would stall the
// sequencer until the server's deadline (see README "Findings").
type job struct {
	kind  core.EventKind
	first int // stream index of the first event
	n     int
	body  []byte
}

// buildJobs cuts the stream into POST bodies of at most maxBatch
// consecutive same-kind events. maxBatch 1 yields single JSON objects
// (one event per call); larger values yield NDJSON.
func buildJobs(events []core.Event, maxBatch int) ([]job, error) {
	if maxBatch < 1 {
		maxBatch = 1
	}
	var jobs []job
	for i := 0; i < len(events); {
		kind := events[i].Kind
		j := i
		var body bytes.Buffer
		for j < len(events) && events[j].Kind == kind && j-i < maxBatch {
			line, err := json.Marshal(serve.EventToWire(events[j]))
			if err != nil {
				return nil, fmt.Errorf("encoding event %d: %w", j, err)
			}
			body.Write(line)
			if maxBatch > 1 {
				body.WriteByte('\n')
			}
			j++
		}
		jobs = append(jobs, job{kind: kind, first: i, n: j - i, body: body.Bytes()})
		i = j
	}
	return jobs, nil
}

// loadOpts configures one pass of the generator.
type loadOpts struct {
	url    string
	conns  int
	rate   float64 // events/s on a fixed schedule (open loop); 0 = closed loop
	ndjson bool
	events []core.Event
	jobs   []job
	expect map[int64]assignment // offline reference, by request ID
	client *http.Client
	rec    *recorder
}

// loadResult is the client-side view of one pass.
type loadResult struct {
	wall      time.Duration
	latNs     []int64 // per event: reply − base, base = send (closed) or due (open)
	callNs    []int64 // per call: reply − send
	lateNs    []int64 // per call, open loop only: send − due
	attempted int64
	failed    int64
	firstErr  error
}

func newLoadClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func endpoint(kind core.EventKind) string {
	if kind == core.WorkerArrival {
		return "/v1/workers"
	}
	return "/v1/requests"
}

// dueAt is the open-loop schedule: event i is due i/rate after start.
func dueAt(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// runLoad pushes the jobs over o.conns connections. Closed loop: a
// connection sends its next POST only after the previous reply. Open
// loop: each POST is due at the slot of its first event and its events'
// latency is counted from that due time, not from the send, so a stall
// charges every request it delays; how late sends ran is recorded.
func runLoad(o loadOpts) loadResult {
	res := loadResult{
		latNs:     make([]int64, len(o.events)),
		callNs:    make([]int64, len(o.jobs)),
		attempted: int64(len(o.events)),
	}
	if o.rate > 0 {
		res.lateNs = make([]int64, len(o.jobs))
	}
	var (
		next    atomic.Int64
		okEvs   atomic.Int64
		stop    atomic.Bool
		errOnce sync.Once
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { res.firstErr = err })
		stop.Store(true)
	}
	start := time.Now()
	for c := 0; c < o.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			connStart := time.Now()
			for !stop.Load() {
				ji := int(next.Add(1) - 1)
				if ji >= len(o.jobs) {
					break
				}
				j := o.jobs[ji]
				var due time.Time
				if o.rate > 0 {
					due = dueAt(start, j.first, o.rate)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				sent := time.Now()
				body, err := post(o.client, o.url+endpoint(j.kind), j.body, o.ndjson)
				done := time.Now()
				if err != nil {
					fail(fmt.Errorf("POST of events %d..%d: %w", j.first, j.first+j.n-1, err))
					break
				}
				res.callNs[ji] = int64(done.Sub(sent))
				base := sent
				if o.rate > 0 {
					base = due
					res.lateNs[ji] = int64(sent.Sub(due))
				}
				lat := int64(done.Sub(base))
				for k := 0; k < j.n; k++ {
					res.latNs[j.first+k] = lat
				}
				o.rec.add(spanCall, spanConn, int64(j.first), sent, done)
				good, err := checkReplies(body, o.events[j.first:j.first+j.n], o.expect)
				okEvs.Add(int64(good))
				if err != nil {
					fail(err)
				}
			}
			o.rec.add(spanConn, "", -1, connStart, time.Now())
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.failed = res.attempted - okEvs.Load()
	return res
}

// post sends one body and returns the reply. A reply that has not
// arrived within the watchdog is a failure.
func post(client *http.Client, url string, body []byte, ndjson bool) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), watchdog)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ndjson {
		req.Header.Set("Content-Type", "application/x-ndjson")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// checkReplies verifies one reply body against the events it answers:
// one line per event, in order, status ok, the event's own ID, and for
// a request exactly the offline reference's decision. It returns how
// many lines were good and the first problem found.
func checkReplies(body []byte, events []core.Event, expect map[int64]assignment) (good int, err error) {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte{'\n'})
	if len(lines) != len(events) {
		return 0, fmt.Errorf("reply has %d lines for %d events", len(lines), len(events))
	}
	for i, line := range lines {
		var d serve.WireDecision
		if uerr := json.Unmarshal(line, &d); uerr != nil {
			if err == nil {
				err = fmt.Errorf("undecodable reply line %q: %w", line, uerr)
			}
			continue
		}
		if perr := checkDecision(d, events[i], expect); perr != nil {
			if err == nil {
				err = perr
			}
			continue
		}
		good++
	}
	return good, err
}

func checkDecision(d serve.WireDecision, ev core.Event, expect map[int64]assignment) error {
	id := eventID(ev)
	if d.Status != serve.StatusOK {
		return fmt.Errorf("%s %d: status %q (%s)", ev.Kind, id, d.Status, d.Error)
	}
	if d.ID != id {
		return fmt.Errorf("%s %d: reply names id %d", ev.Kind, id, d.ID)
	}
	if ev.Kind != core.RequestArrival {
		return nil
	}
	want, served := expect[id]
	switch {
	case served != d.Served:
		return fmt.Errorf("request %d: served=%v, offline reference says %v", id, d.Served, served)
	case served && (d.WorkerID != want.worker || math.Float64bits(d.Payment) != want.payment):
		return fmt.Errorf("request %d: worker %d payment %v, offline reference says worker %d payment %v",
			id, d.WorkerID, d.Payment, want.worker, math.Float64frombits(want.payment))
	}
	return nil
}
