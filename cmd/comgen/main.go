// Command comgen generates synthetic COM workloads and writes them as
// CSV (see internal/workload.WriteCSV for the schema), or summarizes an
// existing CSV stream.
//
// Usage:
//
//	comgen -requests 2500 -workers 500 -rad 1.0 -dist real -seed 42 > stream.csv
//	comgen -preset RDC10+RYC10 -scale 0.05 > rdc10.csv
//	comgen -summarize stream.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"crossmatch/internal/core"
	"crossmatch/internal/workload"
)

func main() {
	var (
		requests  = flag.Int("requests", 2500, "total requests across both platforms")
		workers   = flag.Int("workers", 500, "total physical workers across both platforms")
		rad       = flag.Float64("rad", 1.0, "service radius, km")
		dist      = flag.String("dist", "real", "value distribution: real or normal")
		preset    = flag.String("preset", "", "Table III preset (overrides -requests/-workers): "+fmt.Sprint(workload.PresetNames()))
		scale     = flag.Float64("scale", 0.05, "preset scale in (0,1]")
		seed      = flag.Int64("seed", 42, "random seed")
		summarize = flag.String("summarize", "", "summarize an existing CSV stream instead of generating")
		mapOut    = flag.Bool("map", false, "with -summarize: also render per-platform density maps")
	)
	flag.Parse()

	if err := run(os.Stdout, *requests, *workers, *rad, *dist, *preset, *scale, *seed, *summarize, *mapOut); err != nil {
		if errors.Is(err, workload.ErrUnknownPreset) {
			fmt.Fprintf(os.Stderr, "comgen: %v\nrun 'comgen -h' for usage\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "comgen: %v\n", err)
		}
		os.Exit(1)
	}
}

func run(w io.Writer, requests, workers int, rad float64, dist, preset string, scale float64, seed int64, summarize string, mapOut bool) error {
	if summarize != "" {
		stream, err := workload.ReadCSVFile(summarize)
		if err != nil {
			return err
		}
		if err := printSummary(w, stream); err != nil {
			return err
		}
		if mapOut {
			return workload.WriteDensityMap(w, stream, 0, 0)
		}
		return nil
	}

	stream, err := workload.GenerateNamed(preset, scale, requests, workers, rad, dist, seed)
	if err != nil {
		return err
	}
	return workload.WriteCSV(w, stream)
}

func printSummary(w io.Writer, s *core.Stream) error {
	reqs, wrks := s.Requests(), s.Workers()
	perPlat := map[core.PlatformID][2]int{}
	var minT, maxT core.Time
	sumV, maxV := 0.0, 0.0
	for i, e := range s.Events() {
		if i == 0 || e.Time < minT {
			minT = e.Time
		}
		if e.Time > maxT {
			maxT = e.Time
		}
	}
	for _, r := range reqs {
		c := perPlat[r.Platform]
		c[0]++
		perPlat[r.Platform] = c
		sumV += r.Value
		if r.Value > maxV {
			maxV = r.Value
		}
	}
	for _, wk := range wrks {
		c := perPlat[wk.Platform]
		c[1]++
		perPlat[wk.Platform] = c
	}
	fmt.Fprintf(w, "events: %d (%d requests, %d worker arrivals)\n", s.Len(), len(reqs), len(wrks))
	fmt.Fprintf(w, "time span: [%d, %d]\n", minT, maxT)
	if len(reqs) > 0 {
		fmt.Fprintf(w, "value: mean %.2f, max %.2f\n", sumV/float64(len(reqs)), maxV)
	}
	for _, pid := range s.Platforms() {
		c := perPlat[pid]
		fmt.Fprintf(w, "platform %d: %d requests, %d worker arrivals\n", pid, c[0], c[1])
	}
	// Cross-platform structure: how much of each fleet is stranded for
	// its own platform but reachable by another's demand.
	return workload.WriteDiagnosis(w, workload.Diagnose(s))
}
