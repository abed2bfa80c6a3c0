package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"crossmatch/internal/core"
)

// record drives one synthetic decision through a recorder: a couple of
// stage laps, an optional fault, and a finish.
func record(rc *Recorder, id int64, outcome string) {
	rc.Begin(&core.Request{ID: id, Arrival: core.Time(id), Value: float64(id) * 2})
	t := rc.StageStart()
	time.Sleep(time.Microsecond)
	rc.EndStage(StageInner, t)
	t = rc.StageStart()
	time.Sleep(time.Microsecond)
	rc.EndStage(StagePricing, t)
	if id%2 == 0 {
		rc.Fault(7, "probe-fault", 1500)
	}
	rc.Finish(outcome, float64(id), int(id%3), int(id%2))
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	tr := New(Options{Capacity: 64})
	rc := tr.Recorder(42, 1, "DemCOM")
	for i := int64(1); i <= 5; i++ {
		record(rc, i, "outer")
	}
	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("retained %d spans, want 5", len(spans))
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Span
	for dec := json.NewDecoder(&buf); dec.More(); {
		var sp Span
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		back = append(back, sp)
	}
	if !reflect.DeepEqual(spans, back) {
		t.Errorf("JSONL round trip changed spans:\n emit: %+v\n read: %+v", spans, back)
	}
	for _, sp := range back {
		if sp.Algorithm != "DemCOM" || sp.Platform != 1 || sp.RunSeed != 42 {
			t.Errorf("span lost identity fields: %+v", sp)
		}
		if len(sp.Stages) != 2 {
			t.Errorf("span %d: %d stage laps, want 2", sp.Seq, len(sp.Stages))
		}
		if sp.RequestID%2 == 0 && len(sp.Faults) != 1 {
			t.Errorf("span %d: faults not recorded: %+v", sp.Seq, sp.Faults)
		}
	}
}

func TestRingWrapKeepsNewestAndCounts(t *testing.T) {
	tr := New(Options{Capacity: 4})
	rc := tr.Recorder(1, 3, "RamCOM")
	for i := int64(1); i <= 10; i++ {
		record(rc, i, "inner")
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want capacity 4", len(spans))
	}
	for i, sp := range spans {
		if want := uint64(7 + i); sp.Seq != want {
			t.Errorf("span %d: seq %d, want %d (oldest-first, newest retained)", i, sp.Seq, want)
		}
	}
	if got := tr.Recorded(); got != 10 {
		t.Errorf("Recorded() = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped() = %d, want 6", got)
	}
}

func TestNilTracerChainIsNoOp(t *testing.T) {
	var tr *Tracer
	rc := tr.Recorder(1, 1, "TOTA")
	if rc != nil {
		t.Fatal("nil tracer must yield nil recorder")
	}
	// Every recorder method must be callable on nil.
	rc.Begin(&core.Request{ID: 1})
	st := rc.StageStart()
	if st != 0 {
		t.Error("nil recorder StageStart must not consult the clock")
	}
	rc.EndStage(StageInner, st)
	rc.Fault(1, "probe-fault", 1)
	rc.Finish("inner", 0, 0, 0)
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer Spans() = %v", got)
	}
	if tr.Recorded() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer counts must be zero")
	}
	rep := tr.Report()
	if rep == nil || len(rep.Rows) != 0 {
		t.Errorf("nil tracer report = %+v", rep)
	}
}

func TestSampleOverrides(t *testing.T) {
	off := New(Options{Capacity: 16, Sample: -1})
	rc := off.Recorder(1, 1, "TOTA")
	rc.Begin(&core.Request{ID: 1})
	if rc.StageStart() != 0 {
		t.Error("a negative sample rate must disable recording")
	}
	rc.Finish("inner", 0, 0, 0)
	if off.Recorded() != 0 {
		t.Error("a negative sample rate recorded a span")
	}
	half := New(Options{Capacity: 512, Sample: 0.5})
	rc = half.Recorder(1, 2, "TOTA")
	for i := int64(0); i < 400; i++ {
		rc.Begin(&core.Request{ID: i})
		rc.Finish("inner", 0, 0, 0)
	}
	if n := half.Recorded(); n < 100 || n > 300 {
		t.Errorf("sample 0.5 traced %d/400 requests", n)
	}
	// The traced set is a function of the request IDs alone: another
	// run on another platform traces the same requests.
	again := New(Options{Capacity: 512, Sample: 0.5})
	rc = again.Recorder(2, 3, "DemCOM")
	for i := int64(399); i >= 0; i-- {
		rc.Begin(&core.Request{ID: i})
		rc.Finish("inner", 0, 0, 0)
	}
	ids := func(tr *Tracer) map[int64]bool {
		out := map[int64]bool{}
		for _, sp := range tr.Spans() {
			out[sp.RequestID] = true
		}
		return out
	}
	if !reflect.DeepEqual(ids(half), ids(again)) {
		t.Error("sample 0.5 traced different request IDs in two runs")
	}
	full := New(Options{Capacity: 16, Sample: 1.5})
	rc = full.Recorder(1, 3, "TOTA")
	for i := int64(0); i < 10; i++ {
		rc.Begin(&core.Request{ID: i})
		rc.Finish("inner", 0, 0, 0)
	}
	if full.Recorded() != 10 {
		t.Fatalf("full-rate recorder traced %d/10 requests", full.Recorded())
	}
}

func TestChromeTraceIsLoadableJSON(t *testing.T) {
	tr := New(Options{Capacity: 64})
	rc := tr.Recorder(9, 2, "RamCOM")
	for i := int64(1); i <= 3; i++ {
		record(rc, i, "outer")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Cat  string  `json:"cat"`
			Ts   float64 `json:"ts"`
			Pid  int64   `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	meta, decisions, stages := 0, 0, 0
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M":
			meta++
		case e.Cat == "decision":
			decisions++
		case e.Cat == "stage":
			stages++
		}
	}
	if meta != 1 || decisions != 3 || stages != 6 {
		t.Errorf("event mix meta=%d decisions=%d stages=%d, want 1/3/6", meta, decisions, stages)
	}
}

func TestReportAggregatesByAlgorithmAndStage(t *testing.T) {
	tr := New(Options{Capacity: 64})
	dem := tr.Recorder(1, 1, "DemCOM")
	ram := tr.Recorder(1, 2, "RamCOM")
	for i := int64(1); i <= 4; i++ {
		record(dem, i, "outer")
		record(ram, i, "inner")
	}
	rep := tr.Report()
	if rep.Spans != 8 {
		t.Fatalf("report covers %d spans, want 8", rep.Spans)
	}
	if rep.Outcomes["outer"] != 4 || rep.Outcomes["inner"] != 4 {
		t.Errorf("outcome tally = %v", rep.Outcomes)
	}
	rows := map[string]StageRow{}
	for _, row := range rep.Rows {
		rows[row.Algorithm+"/"+row.Stage] = row
	}
	for _, k := range []string{
		"DemCOM/inner-lookup", "DemCOM/pricing", "DemCOM/total",
		"RamCOM/inner-lookup", "RamCOM/pricing", "RamCOM/total",
	} {
		row, ok := rows[k]
		if !ok {
			t.Fatalf("missing report row %s (have %v)", k, rep.Rows)
		}
		if row.Count != 4 {
			t.Errorf("%s: count %d, want 4", k, row.Count)
		}
		if row.MeanUs <= 0 || row.P50Us <= 0 || row.MaxUs < row.P99Us {
			t.Errorf("%s: implausible latency row %+v", k, row)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DemCOM") || !strings.Contains(buf.String(), "pricing") {
		t.Errorf("rendered report missing expected rows:\n%s", buf.String())
	}
}
