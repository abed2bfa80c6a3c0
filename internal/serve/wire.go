package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/platform"
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
func (d *WireDecision) httpStatus() int { return HTTPStatus(d.Status) }

// HTTPStatus maps a WireDecision status to the HTTP code single-object
// posts answer with. Exported so the fleet router mirrors shard
// semantics exactly when it synthesizes single-object responses.
func HTTPStatus(status string) int {
	switch status {
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

// SplitLines cuts an NDJSON body into its non-empty trimmed lines; the
// lines alias body.
func SplitLines(body []byte) [][]byte {
	var out [][]byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		if t := bytes.TrimSpace(line); len(t) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// toEvent builds the domain event for live mode. The arrival tick is
// stamped later by the sequencer; validation of the stamped event
// happens in Engine.Process via the matcher path, so only structural
// errors are caught here.
func (we *WireEvent) toEvent(kind core.EventKind) (core.Event, error) {
	loc := geo.Point{X: we.X, Y: we.Y}
	switch kind {
	case core.WorkerArrival:
		if !(we.Radius > 0) || math.IsInf(we.Radius, 0) {
			return core.Event{}, fmt.Errorf("worker %d: radius %v must be positive and finite", we.ID, we.Radius)
		}
		for i, v := range we.History {
			if !(v > 0) || math.IsInf(v, 0) {
				return core.Event{}, fmt.Errorf("worker %d: history value %d = %v must be positive and finite", we.ID, i, v)
			}
		}
		w := &core.Worker{ID: we.ID, Loc: loc, Radius: we.Radius,
			Platform: core.PlatformID(we.Platform), History: we.History}
		return core.Event{Kind: kind, Worker: w}, nil
	default:
		if !(we.Value > 0) || math.IsInf(we.Value, 0) {
			return core.Event{}, fmt.Errorf("request %d: value %v must be positive and finite", we.ID, we.Value)
		}
		r := &core.Request{ID: we.ID, Loc: loc, Value: we.Value,
			Platform: core.PlatformID(we.Platform)}
		return core.Event{Kind: kind, Request: r}, nil
	}
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
func decisionLine(kind core.EventKind, id, vtime int64, d platform.RequestDecision) WireDecision {
	out := WireDecision{Status: StatusOK, Kind: KindName(kind), ID: id, VTime: vtime}
	if kind != core.RequestArrival {
		return out
	}
	out.Served = d.Served
	out.Reason = string(d.Reason)
	if d.Served {
		out.WorkerID = d.Worker.ID
		out.WorkerPlatform = int32(d.Worker.Platform)
		out.Outer = d.Outer
		out.Payment = d.Payment
		out.Revenue = d.Revenue
	}
	return out
}

// WriteJSON answers with one JSON document under the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
