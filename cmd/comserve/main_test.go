package main

import (
	"math"
	"strings"
	"testing"
)

// TestBuildOptionsRejectsBadTraceFlags holds comserve to the trace-flag
// check combench applies: a NaN, negative or above-one rate and a
// negative capacity are usage errors, not a silently changed tracer.
func TestBuildOptionsRejectsBadTraceFlags(t *testing.T) {
	base := options{platforms: "1,2", traceOn: true, traceCap: 4096, traceSample: 1}
	for _, tc := range []struct {
		name    string
		sample  float64
		cap     int
		wantErr string
	}{
		{"NaN sample", math.NaN(), 4096, "-trace-sample"},
		{"negative sample", -1, 4096, "-trace-sample"},
		{"sample above one", 5, 4096, "-trace-sample"},
		{"negative cap", 1, -3, "-trace-cap"},
	} {
		o := base
		o.traceSample, o.traceCap = tc.sample, tc.cap
		if _, err := buildOptions(o); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.wantErr)
		}
	}
	opts, err := buildOptions(base)
	if err != nil || opts.Tracer == nil {
		t.Fatalf("valid trace flags: tracer %v, error %v", opts.Tracer, err)
	}
}
