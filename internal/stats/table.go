package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells rendered as aligned text or CSV. It
// reproduces the layout of the paper's result tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; short rows are padded with empty cells, long rows
// are an error surfaced at render time via panic (a programming bug, not
// an input condition).
func (t *Table) Add(cells ...string) {
	if len(cells) > len(t.Headers) {
		panic(fmt.Sprintf("stats: row with %d cells exceeds %d headers", len(cells), len(t.Headers)))
	}
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV (headers first; the title is a
// leading comment-style row only when non-empty).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if t.Title != "" {
		if err := cw.Write([]string{"# " + t.Title}); err != nil {
			return err
		}
	}
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is one Fig. 5-style sub-plot: a common x axis and one line of y
// values per algorithm.
type Series struct {
	Title  string
	XLabel string
	YLabel string
	X      []string
	lines  map[string][]float64
	order  []string
}

// NewSeries returns an empty series over the given x ticks.
func NewSeries(title, xLabel, yLabel string, x []string) *Series {
	return &Series{Title: title, XLabel: xLabel, YLabel: yLabel, X: x, lines: map[string][]float64{}}
}

// Set records algorithm name's y value at x index i.
func (s *Series) Set(name string, i int, y float64) {
	line, ok := s.lines[name]
	if !ok {
		line = make([]float64, len(s.X))
		for j := range line {
			line[j] = -1 // sentinel for "not measured"
		}
		s.lines[name] = line
		s.order = append(s.order, name)
	}
	if i < 0 || i >= len(s.X) {
		panic(fmt.Sprintf("stats: x index %d out of range [0,%d)", i, len(s.X)))
	}
	line[i] = y
}

// Lines returns the algorithm names in insertion order.
func (s *Series) Lines() []string { return append([]string(nil), s.order...) }

// Get returns algorithm name's y value at index i and whether it was set.
func (s *Series) Get(name string, i int) (float64, bool) {
	line, ok := s.lines[name]
	if !ok || i < 0 || i >= len(line) || line[i] < 0 {
		return 0, false
	}
	return line[i], true
}

// Table converts the series into a Table (x column plus one column per
// algorithm), rendering unmeasured points as Dash.
func (s *Series) Table(decimals int) *Table {
	headers := append([]string{s.XLabel}, s.order...)
	t := NewTable(fmt.Sprintf("%s — %s", s.Title, s.YLabel), headers...)
	for i, x := range s.X {
		row := []string{x}
		for _, name := range s.order {
			if y, ok := s.Get(name, i); ok {
				row = append(row, FormatFloat(y, decimals))
			} else {
				row = append(row, Dash)
			}
		}
		t.Add(row...)
	}
	return t
}
