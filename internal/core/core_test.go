package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"crossmatch/internal/geo"
)

func req(id int64, t Time, x, y, v float64, p PlatformID) *Request {
	return &Request{ID: id, Arrival: t, Loc: geo.Point{X: x, Y: y}, Value: v, Platform: p}
}

func wrk(id int64, t Time, x, y, rad float64, p PlatformID) *Worker {
	return &Worker{ID: id, Arrival: t, Loc: geo.Point{X: x, Y: y}, Radius: rad, Platform: p}
}

func TestRequestValidate(t *testing.T) {
	tests := []struct {
		name    string
		r       *Request
		wantErr string
	}{
		{"valid", req(1, 0, 1, 1, 5, 1), ""},
		{"nil", nil, "nil request"},
		{"zero value", req(1, 0, 1, 1, 0, 1), "must be positive"},
		{"negative value", req(1, 0, 1, 1, -3, 1), "must be positive"},
		{"nan value", req(1, 0, 1, 1, math.NaN(), 1), "must be positive and finite"},
		{"inf value", req(1, 0, 1, 1, math.Inf(1), 1), "must be positive and finite"},
		{"nan location", &Request{ID: 1, Loc: geo.Point{X: math.NaN()}, Value: 1, Platform: 1}, "non-finite"},
		{"no platform", req(1, 0, 1, 1, 5, NoPlatform), "missing platform"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.r.Validate()
			checkErr(t, err, tt.wantErr)
		})
	}
}

func TestWorkerValidate(t *testing.T) {
	tests := []struct {
		name    string
		w       *Worker
		wantErr string
	}{
		{"valid", wrk(1, 0, 1, 1, 2, 1), ""},
		{"nil", nil, "nil worker"},
		{"zero radius", wrk(1, 0, 1, 1, 0, 1), "must be positive"},
		{"negative radius", wrk(1, 0, 1, 1, -1, 1), "must be positive"},
		{"nan radius", wrk(1, 0, 1, 1, math.NaN(), 1), "must be positive and finite"},
		{"inf radius", wrk(1, 0, 1, 1, math.Inf(1), 1), "must be positive and finite"},
		{"inf location", &Worker{ID: 1, Loc: geo.Point{Y: math.Inf(1)}, Radius: 1, Platform: 1}, "non-finite"},
		{"no platform", wrk(1, 0, 1, 1, 2, NoPlatform), "missing platform"},
		{"history", &Worker{ID: 1, Radius: 1, Platform: 1, History: []float64{3, 0.5}}, ""},
		{"negative history", &Worker{ID: 1, Radius: 1, Platform: 1, History: []float64{3, -1}}, "history value 1 = -1 must be positive and finite"},
		{"zero history", &Worker{ID: 1, Radius: 1, Platform: 1, History: []float64{0}}, "history value 0 = 0 must be positive and finite"},
		{"nan history", &Worker{ID: 1, Radius: 1, Platform: 1, History: []float64{math.NaN()}}, "must be positive and finite"},
		{"inf history", &Worker{ID: 1, Radius: 1, Platform: 1, History: []float64{math.Inf(1)}}, "must be positive and finite"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkErr(t, tt.w.Validate(), tt.wantErr)
		})
	}
}

func checkErr(t *testing.T, err error, want string) {
	t.Helper()
	if want == "" {
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatalf("expected error containing %q, got nil", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestCanServe(t *testing.T) {
	w := wrk(1, 10, 0, 0, 2, 1)
	tests := []struct {
		name string
		r    *Request
		want bool
	}{
		{"covered, after", req(1, 11, 1, 1, 5, 1), true},
		{"covered, same tick", req(2, 10, 1, 1, 5, 1), true},
		{"covered, before worker", req(3, 9, 1, 1, 5, 1), false},
		{"out of range", req(4, 11, 3, 0, 5, 1), false},
		{"boundary of range", req(5, 11, 2, 0, 5, 1), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CanServe(w, tt.r); got != tt.want {
				t.Errorf("CanServe = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAssignmentRevenue(t *testing.T) {
	r := req(1, 1, 0, 0, 10, 1)
	inner := Assignment{Request: r, Worker: wrk(1, 0, 0, 0, 1, 1)}
	if got := inner.Revenue(); got != 10 {
		t.Errorf("inner revenue = %v, want 10", got)
	}
	outer := Assignment{Request: r, Worker: wrk(2, 0, 0, 0, 1, 2), Payment: 6, Outer: true}
	if got := outer.Revenue(); got != 4 {
		t.Errorf("outer revenue = %v, want 4", got)
	}
}

func TestAssignmentValidate(t *testing.T) {
	r := req(1, 10, 0, 0, 10, 1)
	tests := []struct {
		name    string
		a       Assignment
		wantErr string
	}{
		{"valid inner", Assignment{Request: r, Worker: wrk(1, 5, 0.5, 0, 1, 1)}, ""},
		{"valid outer", Assignment{Request: r, Worker: wrk(2, 5, 0.5, 0, 1, 2), Payment: 7, Outer: true}, ""},
		{"nil worker", Assignment{Request: r}, "nil request or worker"},
		{"time violated", Assignment{Request: r, Worker: wrk(1, 20, 0, 0, 1, 1)}, "time constraint"},
		{"range violated", Assignment{Request: r, Worker: wrk(1, 5, 9, 9, 1, 1)}, "range constraint"},
		{"outer flag mismatch", Assignment{Request: r, Worker: wrk(2, 5, 0, 0, 1, 2), Payment: 7}, "Outer flag"},
		{"inner flagged outer", Assignment{Request: r, Worker: wrk(1, 5, 0, 0, 1, 1), Payment: 7, Outer: true}, "Outer flag"},
		{"payment too high", Assignment{Request: r, Worker: wrk(2, 5, 0, 0, 1, 2), Payment: 11, Outer: true}, "outside (0, 10]"},
		{"payment zero", Assignment{Request: r, Worker: wrk(2, 5, 0, 0, 1, 2), Payment: 0, Outer: true}, "outside (0, 10]"},
		{"inner with payment", Assignment{Request: r, Worker: wrk(1, 5, 0, 0, 1, 1), Payment: 3}, "nonzero payment"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkErr(t, tt.a.Validate(), tt.wantErr)
		})
	}
}

func TestMatchingAddAndRevenue(t *testing.T) {
	m := NewMatching()
	r1 := req(1, 10, 0, 0, 9, 1)
	r2 := req(2, 11, 5, 5, 6, 1)
	w1 := wrk(1, 1, 0, 0, 1, 1)
	w2 := wrk(2, 2, 5, 5, 1, 2)

	if err := m.Add(Assignment{Request: r1, Worker: w1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Assignment{Request: r2, Worker: w2, Payment: 3, Outer: true}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if got := m.Revenue(); got != 9+3 {
		t.Errorf("Revenue = %v, want 12", got)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if a, ok := m.ByRequest(1); !ok || a.Worker.ID != 1 {
		t.Errorf("ByRequest(1) = %+v, %v", a, ok)
	}
	if _, ok := m.ByRequest(99); ok {
		t.Error("ByRequest(99) should not exist")
	}
}

func TestMatchingOneByOneConstraint(t *testing.T) {
	m := NewMatching()
	r1 := req(1, 10, 0, 0, 9, 1)
	r2 := req(2, 11, 0, 0, 6, 1)
	w1 := wrk(1, 1, 0, 0, 1, 1)
	w2 := wrk(2, 2, 0, 0, 1, 1)
	if err := m.Add(Assignment{Request: r1, Worker: w1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Assignment{Request: r1, Worker: w2}); err == nil {
		t.Error("double-matching a request must fail")
	}
	if err := m.Add(Assignment{Request: r2, Worker: w1}); err == nil {
		t.Error("double-matching a worker must fail")
	}
	// The failed adds must not corrupt state.
	if m.Len() != 1 || m.Revenue() != 9 {
		t.Errorf("state corrupted: len=%d rev=%v", m.Len(), m.Revenue())
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}

	// IDs on both sides of 64-ID word boundaries, negative ones and both
	// ends of int64: each is matched once, refused the second time with
	// the request checked before the worker, and leaves its neighbours
	// free.
	m = NewMatching()
	ids := []int64{0, 63, 64, 127, 128, -1, -63, -64, -65, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for _, id := range ids {
		if err := m.Add(Assignment{Request: req(id, 10, 0, 0, 1, 1), Worker: wrk(id, 1, 0, 0, 1, 1)}); err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
		if _, ok := m.ByRequest(id); !ok { // the index, built lazily, follows later Adds
			t.Fatalf("ByRequest(%d) misses an assignment just added", id)
		}
	}
	for _, id := range ids {
		err := m.Add(Assignment{Request: req(id, 10, 0, 0, 1, 1), Worker: wrk(id, 1, 0, 0, 1, 1)})
		if want := fmt.Sprintf("core: request %d already matched", id); err == nil || err.Error() != want {
			t.Errorf("repeated request %d: error %v, want %q", id, err, want)
		}
		err = m.Add(Assignment{Request: req(1000, 10, 0, 0, 1, 1), Worker: wrk(id, 1, 0, 0, 1, 1)})
		if want := fmt.Sprintf("core: worker %d already matched", id); err == nil || err.Error() != want {
			t.Errorf("repeated worker %d: error %v, want %q", id, err, want)
		}
	}
	for _, id := range []int64{1, 62, 65, 126, 129, -2, -62, -66, math.MinInt64 + 2, math.MaxInt64 - 2} {
		if _, ok := m.ByRequest(id); ok {
			t.Errorf("ByRequest(%d) finds an assignment never added", id)
		}
		if err := m.Add(Assignment{Request: req(id, 10, 0, 0, 1, 1), Worker: wrk(id, 1, 0, 0, 1, 1)}); err != nil {
			t.Errorf("id %d, a neighbour of matched ones: %v", id, err)
		}
		if a, ok := m.ByRequest(id); !ok || a.Worker.ID != id {
			t.Errorf("ByRequest(%d) = %+v, %v after its Add", id, a, ok)
		}
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMatchingRejectsInvalidAssignment(t *testing.T) {
	m := NewMatching()
	r := req(1, 10, 0, 0, 9, 1)
	w := wrk(1, 20, 0, 0, 1, 1) // arrives after request
	if err := m.Add(Assignment{Request: r, Worker: w}); err == nil {
		t.Fatal("expected time-constraint error")
	}
	if m.Len() != 0 {
		t.Error("invalid assignment must not be recorded")
	}
}

// Property: revenue equals sum over assignments of v (inner) or v-v' (outer).
func TestMatchingRevenueIdentity(t *testing.T) {
	f := func(vals []float64, outer []bool) bool {
		m := NewMatching()
		want := 0.0
		for i, v := range vals {
			v = math.Abs(math.Mod(v, 100)) + 1
			isOuter := i < len(outer) && outer[i]
			r := req(int64(i+1), Time(i+10), 0, 0, v, 1)
			var a Assignment
			if isOuter {
				pay := v / 2
				a = Assignment{Request: r, Worker: wrk(int64(i+1), 0, 0, 0, 1, 2), Payment: pay, Outer: true}
				want += v - pay
			} else {
				a = Assignment{Request: r, Worker: wrk(int64(i+1), 0, 0, 0, 1, 1)}
				want += v
			}
			if err := m.Add(a); err != nil {
				return false
			}
		}
		return math.Abs(m.Revenue()-want) < 1e-9 && m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
