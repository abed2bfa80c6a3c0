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
	sp := rc.Begin(&core.Request{ID: id, Arrival: core.Time(id), Value: float64(id) * 2})
	t := sp.StageStart()
	time.Sleep(time.Microsecond)
	sp.EndStage(StageInner, t)
	t = sp.StageStart()
	time.Sleep(time.Microsecond)
	sp.EndStage(StagePricing, t)
	if id%2 == 0 {
		sp.Fault(7, "probe-fault", 1500)
	}
	sp.Finish(outcome, float64(id), int(id%3), int(id%2))
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
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
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

func TestReadJSONLRejectsMalformedLine(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"seq\":1}\n\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line-numbered parse error, got %v", err)
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
	sp := rc.Begin(&core.Request{ID: 1})
	if sp != nil {
		t.Fatal("nil recorder must yield nil span")
	}
	// Every span method must be callable on nil.
	st := sp.StageStart()
	if !st.IsZero() {
		t.Error("nil span StageStart must not consult the clock")
	}
	sp.EndStage(StageInner, st)
	sp.Fault(1, "probe-fault", 1)
	sp.Finish("inner", 0, 0, 0)
	if rc.Active() != nil {
		t.Error("nil recorder must have no active span")
	}
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
	if rc := off.Recorder(1, 1, "TOTA"); rc.Begin(&core.Request{ID: 1}) != nil {
		t.Error("a negative sample rate must disable recording")
	}
	rc := New(Options{Capacity: 16, Sample: 0.5}).Recorder(1, 2, "TOTA")
	n := 0
	for i := int64(0); i < 400; i++ {
		if sp := rc.Begin(&core.Request{ID: i}); sp != nil {
			n++
			sp.Finish("inner", 0, 0, 0)
		}
	}
	if n < 100 || n > 300 {
		t.Errorf("sample 0.5 traced %d/400 requests", n)
	}
	// Full-rate recorders never consult sampling randomness.
	full := New(Options{Capacity: 16, Sample: 1.5}).Recorder(1, 3, "TOTA")
	for i := int64(0); i < 10; i++ {
		sp := full.Begin(&core.Request{ID: i})
		if sp == nil {
			t.Fatal("full-rate recorder skipped a request")
		}
		sp.Finish("inner", 0, 0, 0)
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
