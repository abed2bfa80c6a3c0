package main

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// TestRunRejectsBadFlags: each bad flag value stops run before it
// listens. The listen address is unusable, so a value that slipped
// through would fail there instead, with an error naming no flag.
func TestRunRejectsBadFlags(t *testing.T) {
	const fleet = "s1=http://127.0.0.1:1,s2=http://127.0.0.1:2"
	cases := []struct {
		name string
		o    options
		want string
	}{
		{"negative probe interval", options{shardsSpec: fleet, probeEvery: -time.Second}, "probe interval"},
		{"negative cell", options{shardsSpec: fleet, cellSize: -1}, "cell size"},
		{"NaN cell", options{shardsSpec: fleet, cellSize: math.NaN()}, "cell size"},
		{"shard without =", options{shardsSpec: "s1=http://127.0.0.1:1,s2"}, "name=url"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.o.addr = "no-port"
			err := run(io.Discard, c.o)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run: %v, want an error naming %q", err, c.want)
			}
		})
	}
}
