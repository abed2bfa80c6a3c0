// Command comsim runs a single cross-online-matching simulation and
// prints per-platform results: revenue, completed/cooperative requests,
// acceptance ratio, payment rate and decision latency.
//
// Usage:
//
//	comsim -alg DemCOM -requests 2500 -workers 500
//	comsim -alg RamCOM -preset RDC10+RYC10 -scale 0.02
//	comsim -alg TOTA -in stream.csv
//	comsim -alg DemCOM -requests 1000 -workers 200 -off   # also print OFF
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"crossmatch/internal/core"
	"crossmatch/internal/experiments"
	"crossmatch/internal/platform"
	"crossmatch/internal/stats"
	"crossmatch/internal/workload"
)

type options struct {
	alg      string
	requests int
	workers  int
	rad      float64
	dist     string
	preset   string
	scale    float64
	in       string
	seed     int64
	noCoop   bool
	withOff  bool
	ensemble int
}

func main() {
	var o options
	flag.StringVar(&o.alg, "alg", platform.AlgDemCOM, "algorithm: TOTA, Greedy-RT, DemCOM, RamCOM or BatchCOM")
	flag.IntVar(&o.requests, "requests", 2500, "total requests (synthetic workload)")
	flag.IntVar(&o.workers, "workers", 500, "total physical workers (synthetic workload)")
	flag.Float64Var(&o.rad, "rad", 1.0, "service radius, km")
	flag.StringVar(&o.dist, "dist", "real", "value distribution: real or normal")
	flag.StringVar(&o.preset, "preset", "", "Table III preset (overrides synthetic flags)")
	flag.Float64Var(&o.scale, "scale", 0.05, "preset scale in (0,1]")
	flag.StringVar(&o.in, "in", "", "read the stream from a comgen CSV instead of generating")
	flag.Int64Var(&o.seed, "seed", 42, "random seed")
	flag.BoolVar(&o.noCoop, "nocoop", false, "disable cross-platform cooperation")
	flag.BoolVar(&o.withOff, "off", false, "also compute the OFF upper bound")
	flag.IntVar(&o.ensemble, "ensemble", 0, "run this many seeds in parallel and report mean +/- spread instead of one run")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		switch {
		case errors.Is(err, platform.ErrUnknownAlgorithm), errors.Is(err, workload.ErrUnknownPreset):
			fmt.Fprintf(os.Stderr, "comsim: %v\nrun 'comsim -h' for the accepted values\n", err)
		default:
			fmt.Fprintf(os.Stderr, "comsim: %v\n", err)
		}
		os.Exit(1)
	}
}

func loadStream(o options) (*core.Stream, error) {
	if o.in != "" {
		return workload.ReadCSVFile(o.in)
	}
	return workload.GenerateNamed(o.preset, o.scale, o.requests, o.workers, o.rad, o.dist, o.seed)
}

func run(w io.Writer, o options) error {
	stream, err := loadStream(o)
	if err != nil {
		return err
	}
	spec := platform.Spec{Algorithm: o.alg, Seed: o.seed, MaxValue: stream.MaxValue(), DisableCoop: o.noCoop}
	factory, cfg, err := spec.Lower()
	if err != nil {
		return err
	}
	if o.ensemble > 1 {
		return runEnsemble(w, o, stream, spec)
	}
	res, err := platform.Run(stream, factory, cfg)
	if err != nil {
		return err
	}
	if err := res.Validate(); err != nil {
		return fmt.Errorf("invalid result: %w", err)
	}

	fmt.Fprintf(w, "%s over %d events (%d requests, %d worker arrivals)\n",
		o.alg, stream.Len(), len(stream.Requests()), len(stream.Workers()))
	tb := stats.NewTable("", "Platform", "Revenue", "Served", "Inner", "Coop", "AcpRt", "v'/v", "Mean resp", "p95 resp")
	for _, pid := range stream.Platforms() {
		pr := res.Platforms[pid]
		if pr == nil {
			continue
		}
		s := pr.Stats
		acp, pay := stats.Dash, stats.Dash
		if s.CoopAttempted > 0 {
			acp = stats.FormatFloat(s.AcceptanceRatio(), 2)
		}
		if s.ServedOuter > 0 {
			pay = stats.FormatFloat(s.MeanPaymentRate(), 2)
		}
		tb.Add(fmt.Sprint(pid),
			stats.FormatFloat(s.Revenue, 1),
			stats.FormatCount(s.Served),
			stats.FormatCount(s.ServedInner),
			stats.FormatCount(s.ServedOuter),
			acp, pay,
			stats.FormatMillis(pr.MeanResponse()),
			stats.FormatMillis(pr.Latency.Percentile(0.95)))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "total revenue: %.1f, served: %d, cooperative: %d\n",
		res.TotalRevenue(), res.TotalServed(), res.CooperativeServed())

	if o.withOff {
		off, err := platform.Offline(stream)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "OFF upper bound: %.1f revenue, %d served (online/OFF = %.3f)\n",
			off.TotalWeight, off.TotalServed, res.TotalRevenue()/off.TotalWeight)
	}
	return nil
}

// runEnsemble reports mean and spread over o.ensemble parallel seeds.
func runEnsemble(w io.Writer, o options, stream *core.Stream, spec platform.Spec) error {
	s, err := experiments.RunEnsemble(stream, spec, o.ensemble)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s over %d seeds: revenue %.1f (min %.1f, max %.1f, +/-%.1f%%), served %.1f, cooperative %.1f, AcpRt %.2f, v'/v %.2f\n",
		o.alg, s.Runs, s.MeanRevenue, s.MinRevenue, s.MaxRevenue, 100*s.RevenueStdDevFrac,
		s.MeanServed, s.MeanCooperative, s.MeanAcceptance, s.MeanPaymentRate)
	if o.withOff {
		off, err := platform.Offline(stream)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "OFF upper bound: %.1f revenue (mean online/OFF = %.3f)\n",
			off.TotalWeight, s.MeanRevenue/off.TotalWeight)
	}
	return nil
}
