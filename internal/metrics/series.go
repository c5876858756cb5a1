package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Point is one sample of a time series.
type Point struct {
	Cycle int
	Value float64
}

// Series is a named time series recorded during an experiment.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(cycle int, value float64) {
	s.Points = append(s.Points, Point{Cycle: cycle, Value: value})
}

// Last returns the most recent sample.
func (s Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// At returns the value recorded at the given cycle.
func (s Series) At(cycle int) (float64, bool) {
	for _, p := range s.Points {
		if p.Cycle == cycle {
			return p.Value, true
		}
	}
	return 0, false
}

// WriteCSV emits one row per cycle with one column per series, aligned
// on the union of the recorded cycles. Missing samples are left empty.
// The column header of the x axis is xlabel.
func WriteCSV(w io.Writer, xlabel string, series ...Series) error {
	cycles := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			cycles[p.Cycle] = true
		}
	}
	order := make([]int, 0, len(cycles))
	for c := range cycles {
		order = append(order, c)
	}
	sort.Ints(order)
	header := make([]string, 0, len(series)+1)
	header = append(header, xlabel)
	for _, s := range series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, c := range order {
		row := make([]string, 0, len(series)+1)
		row = append(row, strconv.Itoa(c))
		for _, s := range series {
			if v, ok := s.At(c); ok {
				row = append(row, strconv.FormatFloat(v, 'g', 8, 64))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Table renders rows of experiment output with aligned columns, the way
// the harness prints paper-figure data to a terminal.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable builds a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = strconv.FormatFloat(x, 'g', 6, 64)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var total int64
	line := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && len(cell) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		n, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		total += int64(n)
		return err
	}
	if err := line(t.headers); err != nil {
		return total, err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return total, err
		}
	}
	return total, nil
}
