package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/online"
)

// WireEvent is the JSON wire form of one arrival, posted to
// /v1/requests or /v1/workers (the endpoint supplies the kind). In
// live mode the server assigns the ID when it is zero and stamps the
// arrival tick from its virtual clock; the Arrival field is accepted
// but ignored. In replay mode only the ID matters — it names an event
// of the recorded stream, and the recorded fields are authoritative.
type WireEvent struct {
	ID       int64     `json:"id,omitempty"`
	X        float64   `json:"x"`
	Y        float64   `json:"y"`
	Platform int32     `json:"platform"`
	Value    float64   `json:"value,omitempty"`   // requests: payment value v
	Radius   float64   `json:"radius,omitempty"`  // workers: service radius
	History  []float64 `json:"history,omitempty"` // workers: past request values
	Arrival  int64     `json:"arrival,omitempty"` // informational; server stamps virtual time
}

// Outcome status values carried by WireDecision.Status.
const (
	// StatusOK — the event was sequenced and decided.
	StatusOK = "ok"
	// StatusShed — admission control refused the event (token bucket or
	// full ingest queue); retry after RetryAfterMs.
	StatusShed = "shed"
	// StatusDraining — the server is shutting down and no longer admits
	// events.
	StatusDraining = "draining"
	// StatusUnavailable — a fleet router could not serve the event: its
	// owning shard is not ready, or the post to it failed and the shard
	// may or may not have applied it. Retry after RetryAfterMs.
	StatusUnavailable = "unavailable"
	// StatusDeadline — the event was admitted but its decision did not
	// return within the per-request deadline. The event is still in the
	// sequencer's order and will be applied; only this response gave up.
	StatusDeadline = "deadline"
	// StatusUnknown — replay mode: the ID names no event of the
	// recorded stream.
	StatusUnknown = "unknown"
	// StatusDuplicate — replay mode: the event was already delivered.
	StatusDuplicate = "duplicate"
	// StatusError — the event was malformed or the engine rejected it.
	StatusError = "error"
)

// WireDecision is the per-event response line: the admission outcome,
// and for sequenced request arrivals the synchronous match decision
// (assigned worker, payment, revenue, outcome reason).
type WireDecision struct {
	Status string `json:"status"`
	Kind   string `json:"kind,omitempty"` // "request" or "worker"
	ID     int64  `json:"id,omitempty"`
	VTime  int64  `json:"vtime,omitempty"` // virtual arrival tick stamped by the sequencer
	// Shard names the serving shard that produced this line. Empty on
	// direct comserve responses; a fleet router (cmd/comroute) stamps it
	// so clients can attribute outcomes per shard.
	Shard string `json:"shard,omitempty"`
	// Decision fields, request arrivals only.
	Served         bool    `json:"served,omitempty"`
	Reason         string  `json:"reason,omitempty"`
	WorkerID       int64   `json:"worker,omitempty"`
	WorkerPlatform int32   `json:"worker_platform,omitempty"`
	Outer          bool    `json:"outer,omitempty"`
	Payment        float64 `json:"payment,omitempty"`
	Revenue        float64 `json:"revenue,omitempty"`
	// Flow control and errors.
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	Error        string `json:"error,omitempty"`
}

// httpStatus maps an outcome to the HTTP code used for single-object
// posts (batch posts always answer 200 with per-line statuses).
func (d *WireDecision) httpStatus() int {
	switch d.Status {
	case StatusOK:
		return http.StatusOK
	case StatusShed:
		return http.StatusTooManyRequests
	case StatusDraining, StatusUnavailable:
		return http.StatusServiceUnavailable
	case StatusDeadline:
		return http.StatusGatewayTimeout
	case StatusUnknown:
		return http.StatusNotFound
	case StatusDuplicate:
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// KindName is an event kind's name on the wire.
func KindName(k core.EventKind) string {
	if k == core.WorkerArrival {
		return "worker"
	}
	return "request"
}

// MaxBodyBytes bounds one ingest POST (a few hundred thousand NDJSON
// lines — far beyond any sane batch), at a shard and at the router.
const MaxBodyBytes = 32 << 20

// splitLines cuts an NDJSON body into its non-empty trimmed lines; the
// lines alias body.
func splitLines(body []byte) [][]byte {
	var out [][]byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		if t := bytes.TrimSpace(line); len(t) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// toEvent builds the domain event for live mode and checks it with the
// payload's own validator — what the engine would refuse after the
// event is logged is refused before. The arrival tick is stamped later
// by the sequencer.
func (we *WireEvent) toEvent(kind core.EventKind) (core.Event, error) {
	loc, pid := geo.Point{X: we.X, Y: we.Y}, core.PlatformID(we.Platform)
	ev := core.Event{Kind: kind}
	if kind == core.WorkerArrival {
		ev.Worker = &core.Worker{ID: we.ID, Loc: loc, Radius: we.Radius, Platform: pid, History: we.History}
	} else {
		ev.Request = &core.Request{ID: we.ID, Loc: loc, Value: we.Value, Platform: pid}
	}
	return ev, ev.Validate()
}

// EventToWire converts a domain event to its wire form — what the load
// generator posts when replaying a recorded stream.
func EventToWire(ev core.Event) WireEvent {
	switch ev.Kind {
	case core.WorkerArrival:
		w := ev.Worker
		return WireEvent{ID: w.ID, X: w.Loc.X, Y: w.Loc.Y, Platform: int32(w.Platform),
			Radius: w.Radius, History: w.History, Arrival: int64(w.Arrival)}
	default:
		r := ev.Request
		return WireEvent{ID: r.ID, X: r.Loc.X, Y: r.Loc.Y, Platform: int32(r.Platform),
			Value: r.Value, Arrival: int64(r.Arrival)}
	}
}

// decisionLine builds the OK response line for a sequenced event.
func decisionLine(kind core.EventKind, id, vtime int64, d online.Decided) WireDecision {
	out := WireDecision{Status: StatusOK, Kind: KindName(kind), ID: id, VTime: vtime}
	if kind != core.RequestArrival {
		return out
	}
	out.Served = d.Served
	out.Reason = string(d.Reason)
	if a := d.Assignment; d.Served {
		out.WorkerID = a.Worker.ID
		out.WorkerPlatform = int32(a.Worker.Platform)
		out.Outer = a.Outer
		out.Payment = a.Payment
		out.Revenue = a.Revenue()
	}
	return out
}

// ingestPath is the ingest endpoint of an event kind.
func ingestPath(kind core.EventKind) string {
	if kind == core.WorkerArrival {
		return "/v1/workers"
	}
	return "/v1/requests"
}

// HandleIngest registers handle as mux's POST endpoint for each event
// kind, a shard's and the fleet router's alike.
func HandleIngest(mux *http.ServeMux, handle func(http.ResponseWriter, *http.Request, core.EventKind)) {
	for _, kind := range []core.EventKind{core.RequestArrival, core.WorkerArrival} {
		mux.HandleFunc("POST "+ingestPath(kind), func(w http.ResponseWriter, r *http.Request) {
			handle(w, r, kind)
		})
	}
}

// Post is the one client of the ingest API, the load generator's and
// the fleet router's alike: it posts an NDJSON body of kind's events to
// the server at base and returns the reply's lines, one decision per
// event line. The NDJSON content type makes the server answer per line
// even for a single event; any status but 200 is an error carrying the
// reply body.
func Post(ctx context.Context, client *http.Client, base string, kind core.EventKind, body []byte) ([][]byte, error) {
	url := base + ingestPath(kind)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(reply)))
	}
	return splitLines(reply), nil
}

// ReadIngest reads an ingest POST the way every hop that takes one
// does, a shard and the fleet router alike: the body under
// MaxBodyBytes, cut into its non-empty lines. An unreadable or empty
// body is answered 400 here and ok is false. batch reports whether the
// answer is NDJSON: more than one line, or an ndjson content type.
func ReadIngest(w http.ResponseWriter, r *http.Request) (lines [][]byte, batch, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, WireDecision{Status: StatusError, Error: "reading body: " + err.Error()})
		return nil, false, false
	}
	lines = splitLines(body)
	if len(lines) == 0 {
		WriteJSON(w, http.StatusBadRequest, WireDecision{Status: StatusError, Error: "empty body"})
		return nil, false, false
	}
	return lines, len(lines) > 1 || strings.Contains(r.Header.Get("Content-Type"), "ndjson"), true
}

// WriteDecisions answers an ingest POST with one decision per line, in
// input order: a batch as 200 and NDJSON, a single object under its
// outcome's HTTP status, with a Retry-After header when it carries a
// hint.
func WriteDecisions(w http.ResponseWriter, batch bool, outs []WireDecision) {
	if !batch {
		out := &outs[0]
		if out.RetryAfterMs > 0 {
			w.Header().Set("Retry-After", strconv.FormatInt(RetryAfterHeaderSeconds(out.RetryAfterMs), 10))
		}
		WriteJSON(w, out.httpStatus(), out)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	lw := newLineWriter(w)
	for i := range outs {
		lw.writeLine(&outs[i])
	}
	lw.flush()
}

// WriteJSON answers with one JSON document under the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
