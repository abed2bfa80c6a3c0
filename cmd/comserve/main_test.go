package main

import (
	"io"
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

// TestRunRejectsBadRateAndMaxValue: a rate that is negative, NaN or
// infinite, a NaN or infinite max value for a threshold algorithm, and
// negative service ticks stop run before it listens. The listen address is unusable, so a
// value that slipped through would fail there instead, with an error
// naming neither.
func TestRunRejectsBadRateAndMaxValue(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    options
		want string
	}{
		{"NaN rate", options{alg: "DemCOM", rate: math.NaN()}, "rate"},
		{"negative rate", options{alg: "DemCOM", rate: -5}, "rate"},
		{"infinite rate", options{alg: "DemCOM", rate: math.Inf(1)}, "rate"},
		{"RamCOM NaN max value", options{alg: "RamCOM", maxValue: math.NaN()}, "max value"},
		{"Greedy-RT infinite max value", options{alg: "Greedy-RT", maxValue: math.Inf(1)}, "max value"},
		{"negative service ticks", options{alg: "DemCOM", serviceTicks: -3}, "service ticks -3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.o.addr, tc.o.platforms, tc.o.queueCap = "no-port", "1,2", 16
			if err := run(io.Discard, tc.o); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run: %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
