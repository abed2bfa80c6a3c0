package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
)

// WriteCSV serializes a stream as CSV with the header
//
//	kind,id,arrival,platform,x,y,value,radius,history
//
// Workers carry radius and a semicolon-joined history; requests carry
// value. The format round-trips through ReadCSV and is what cmd/comgen
// emits for offline inspection or for feeding external tools.
func WriteCSV(w io.Writer, s *core.Stream) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "id", "arrival", "platform", "x", "y", "value", "radius", "history"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, e := range s.Events() {
		var rec []string
		switch e.Kind {
		case core.WorkerArrival:
			wk := e.Worker
			hist := make([]string, len(wk.History))
			for i, h := range wk.History {
				hist[i] = f(h)
			}
			rec = []string{"worker", strconv.FormatInt(wk.ID, 10), strconv.FormatInt(int64(wk.Arrival), 10),
				strconv.Itoa(int(wk.Platform)), f(wk.Loc.X), f(wk.Loc.Y), "", f(wk.Radius), strings.Join(hist, ";")}
		case core.RequestArrival:
			r := e.Request
			rec = []string{"request", strconv.FormatInt(r.ID, 10), strconv.FormatInt(int64(r.Arrival), 10),
				strconv.Itoa(int(r.Platform)), f(r.Loc.X), f(r.Loc.Y), f(r.Value), "", ""}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVFile opens the file at path and reads a stream from it with
// ReadCSV; any error names the path.
func ReadCSVFile(path string) (*core.Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err) // *fs.PathError names the path
	}
	defer f.Close()
	s, err := ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("workload: reading %s: %w", path, err)
	}
	return s, nil
}

// ReadCSV parses a stream previously written by WriteCSV.
func ReadCSV(r io.Reader) (*core.Stream, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 9
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading CSV header: %w", err)
	}
	if len(header) != 9 || header[0] != "kind" {
		return nil, fmt.Errorf("workload: unexpected CSV header %v", header)
	}
	var workers []core.Worker
	var requests []core.Request
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: CSV line %d: %w", line, err)
		}
		id, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: CSV line %d: id: %w", line, err)
		}
		arr, err := strconv.ParseInt(rec[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: CSV line %d: arrival: %w", line, err)
		}
		plat, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, fmt.Errorf("workload: CSV line %d: platform: %w", line, err)
		}
		x, err := strconv.ParseFloat(rec[4], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: CSV line %d: x: %w", line, err)
		}
		y, err := strconv.ParseFloat(rec[5], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: CSV line %d: y: %w", line, err)
		}
		loc := geo.Point{X: x, Y: y}
		switch rec[0] {
		case "worker":
			rad, err := strconv.ParseFloat(rec[7], 64)
			if err != nil {
				return nil, fmt.Errorf("workload: CSV line %d: radius: %w", line, err)
			}
			var hist []float64
			if rec[8] != "" {
				for _, hs := range strings.Split(rec[8], ";") {
					h, err := strconv.ParseFloat(hs, 64)
					if err != nil {
						return nil, fmt.Errorf("workload: CSV line %d: history: %w", line, err)
					}
					hist = append(hist, h)
				}
			}
			workers = append(workers, core.Worker{ID: id, Arrival: core.Time(arr), Loc: loc, Radius: rad,
				Platform: core.PlatformID(plat), History: hist})
		case "request":
			v, err := strconv.ParseFloat(rec[6], 64)
			if err != nil {
				return nil, fmt.Errorf("workload: CSV line %d: value: %w", line, err)
			}
			requests = append(requests, core.Request{ID: id, Arrival: core.Time(arr), Loc: loc, Value: v,
				Platform: core.PlatformID(plat)})
		default:
			return nil, fmt.Errorf("workload: CSV line %d: unknown kind %q", line, rec[0])
		}
	}
	return core.NewStreamPacked(workers, requests)
}
