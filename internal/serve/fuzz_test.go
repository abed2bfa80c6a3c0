package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/workload"
)

// shardStatuses is every status a shard answers an ingest line with
// (StatusUnavailable is the fleet router's alone).
var shardStatuses = map[string]bool{
	StatusOK: true, StatusShed: true, StatusDraining: true, StatusDeadline: true,
	StatusUnknown: true, StatusDuplicate: true, StatusError: true,
}

// FuzzIngest posts a fuzzed NDJSON body through Handler() to a live
// server and to a replay server over a small recorded stream. Neither
// may panic; each answers exactly one decision line per non-empty input
// line, every status is a shard status, and every line is counted once
// by admission: accepted + shed + drained + bad_events = lines.
func FuzzIngest(f *testing.F) {
	cfg, err := workload.Synthetic(12, 6, 1.0, "real")
	if err != nil {
		f.Fatal(err)
	}
	stream, err := workload.Generate(cfg, 3)
	if err != nil {
		f.Fatal(err)
	}
	first := map[core.EventKind][]int64{}
	for _, ev := range stream.Events() {
		first[ev.Kind] = append(first[ev.Kind], eventID(ev))
	}
	for _, worker := range []bool{true, false} {
		kind := core.RequestArrival
		if worker {
			kind = core.WorkerArrival
		}
		ids := first[kind]
		for _, body := range []string{
			"",
			"\n",
			" \t\n\r\n  ",
			`{"id":1,"x":0.5,"y":0.5,"platform":1,"radius":0.4,"value":2}`,
			`{"x":0.5,"y":0.5,"platform":1,"radius":0.4,"value":2}` + "\n\n" + `{"x":0.5,"y":0.5,"platform":2,"radius":0.4,"value":2}`,
			`{"ID":3,"X":0.5,"Y":0.5,"Platform":1,"Radius":0.4,"Value":2}`,
			`{"id":3,"bogus":1}` + "\n" + `{"Id":4,"platForm":1}`,
			`{"id":5,"x":NaN,"y":0.5,"platform":1,"radius":0.4,"value":2}`,
			`{"id":6,"x":1e400,"y":0.5,"platform":1,"radius":0.4,"value":1e400}`,
			`{"id":7,"x":0.5,"y":0.5,"platform":9,"radius":0.4,"value":2}`,
			fmt.Sprintf(`{"id":%d}`+"\n"+`{"id":%d}`, ids[0], ids[0]),
			fmt.Sprintf(`{"id":%d}`+"\n"+`{"id":%d}`+"\n"+`{"id":-1}`, ids[0], ids[1]),
			`{"id":1}` + "\n" + `not json` + "\n" + `[]` + "\n" + `null`,
		} {
			f.Add(body, worker)
		}
	}
	f.Fuzz(func(t *testing.T, body string, worker bool) {
		if len(body) > MaxBodyBytes {
			t.Skip()
		}
		kind := core.RequestArrival
		if worker {
			kind = core.WorkerArrival
		}
		lines := 0
		for _, line := range strings.Split(body, "\n") {
			if strings.TrimSpace(line) != "" {
				lines++
			}
		}
		for _, opts := range []Options{
			{Seed: 1, Deadline: 10 * time.Millisecond},
			{Seed: 1, Deadline: 10 * time.Millisecond, Replay: stream},
		} {
			srv, err := New(opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			req := httptest.NewRequest(http.MethodPost, ingestPath(kind), strings.NewReader(body))
			req.Header.Set("Content-Type", "application/x-ndjson")
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			c := srv.Snapshot().Server
			if _, err := srv.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			replay := opts.Replay != nil
			if lines == 0 {
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("replay=%v: a body without lines answered %d", replay, rec.Code)
				}
				continue
			}
			var outs []WireDecision
			sc := bufio.NewScanner(rec.Body)
			sc.Buffer(nil, MaxBodyBytes)
			for sc.Scan() {
				var d WireDecision
				if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
					t.Fatalf("replay=%v: answer line %q: %v", replay, sc.Bytes(), err)
				}
				outs = append(outs, d)
			}
			if rec.Code != http.StatusOK || len(outs) != lines {
				t.Fatalf("replay=%v: %d input lines answered %d with %d lines", replay, lines, rec.Code, len(outs))
			}
			for i, d := range outs {
				if !shardStatuses[d.Status] {
					t.Fatalf("replay=%v: line %d has status %q", replay, i, d.Status)
				}
			}
			if got := c.Accepted + c.ShedRateLimit + c.ShedQueueFull + c.Drained + c.BadEvents; got != int64(lines) {
				t.Fatalf("replay=%v: admission counted %d of %d lines: %+v", replay, got, lines, c)
			}
		}
	})
}
