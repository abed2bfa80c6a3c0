package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL writes every retained span as one JSON object per line,
// ordered by commit sequence; encoding/json decodes each line back into
// a Span.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	spans := t.Spans()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// "X" complete events carry ts/dur in microseconds; "M" metadata events
// name processes and threads in the viewer.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the retained spans as a Chrome trace-event
// JSON object loadable in Perfetto or chrome://tracing. Each platform
// becomes one process row; every decision is a complete event with its
// stages nested beneath it on the same thread; injected faults ride
// along in the event args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	const usPerNs = 1e-3
	events := make([]chromeEvent, 0, 2*len(spans)+8)
	named := map[int64]string{}
	for i := range spans {
		sp := &spans[i]
		pid := int64(sp.Platform)
		if _, ok := named[pid]; !ok {
			named[pid] = sp.Algorithm
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid, Tid: pid,
				Args: map[string]any{"name": fmt.Sprintf("platform-%d (%s)", pid, sp.Algorithm)},
			})
		}
		args := map[string]any{
			"request": sp.RequestID,
			"arrival": sp.Arrival,
			"value":   sp.Value,
			"outcome": sp.Outcome,
			"seq":     sp.Seq,
		}
		if sp.Payment != 0 {
			args["payment"] = sp.Payment
		}
		if sp.Probes != 0 {
			args["probes"] = sp.Probes
		}
		if sp.ClaimRetries != 0 {
			args["claim_retries"] = sp.ClaimRetries
		}
		if len(sp.Faults) > 0 {
			faults := make([]string, len(sp.Faults))
			for j, f := range sp.Faults {
				faults[j] = fmt.Sprintf("partner-%d: %s", f.Partner, f.Kind)
			}
			args["faults"] = faults
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s %s r%d", sp.Algorithm, sp.Outcome, sp.RequestID),
			Cat:  "decision",
			Ph:   "X",
			Ts:   float64(sp.Start) * usPerNs,
			Dur:  float64(sp.Total) * usPerNs,
			Pid:  pid,
			Tid:  pid,
			Args: args,
		})
		for _, l := range sp.Stages {
			events = append(events, chromeEvent{
				Name: l.Stage,
				Cat:  "stage",
				Ph:   "X",
				Ts:   float64(sp.Start+l.Offset) * usPerNs,
				Dur:  float64(l.Dur) * usPerNs,
				Pid:  pid,
				Tid:  pid,
			})
		}
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
