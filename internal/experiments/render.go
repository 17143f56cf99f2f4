package experiments

import (
	"fmt"
	"io"
	"strings"
)

// table is a minimal text table renderer for experiment output.
type table struct {
	title   string
	headers []string
	rows    [][]string
}

func newTable(title string, headers ...string) *table {
	return &table{title: title, headers: headers}
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "\n== %s ==\n", t.title)
	var sb strings.Builder
	for i, h := range t.headers {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], h)
	}
	fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(sb.String(), " "))))
	for _, r := range t.rows {
		sb.Reset()
		for i, c := range r {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s  ", width, c)
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
