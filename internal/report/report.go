package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and prints them with aligned columns.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v unless string.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// formatFloat renders numbers compactly: large magnitudes in scientific
// notation, mid-range with thousands precision, small with 3 decimals.
func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1e7 || av < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b) //nolint:errcheck — strings.Builder cannot fail
	return b.String()
}

// CSV renders the table as comma-separated values (for plotting).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Rows returns the number of data rows added so far.
func (t *Table) Rows() int { return len(t.rows) }

// Seconds renders a duration in seconds with an adaptive unit, for the
// predicted and critical-path columns of the timed-transport tables.
func Seconds(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av < 1e-3:
		return fmt.Sprintf("%.2fµs", v*1e6)
	case av < 1:
		return fmt.Sprintf("%.3fms", v*1e3)
	default:
		return fmt.Sprintf("%.3fs", v)
	}
}
