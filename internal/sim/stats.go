// Package sim is the experiment harness that regenerates every table and
// figure of Ho & Stockmeyer (IPDPS 2002). Each experiment draws random
// fault sets (deterministically seeded per trial), runs the lamb algorithm,
// and aggregates the statistics the paper plots: lamb counts, SES counts,
// additional damage, percentages of the mesh, and running time.
//
// Trials run in parallel on a bounded worker pool (ForEachTrial); trial t's
// RNG is seeded with par.TrialSeed(seed, 0, t), so results are independent
// of scheduling and worker count.
package sim

import (
	"fmt"
	"math"
	"strings"
)

// Agg accumulates a scalar observation across trials.
type Agg struct {
	Count int
	Sum   float64
	MaxV  float64
}

// Add records one observation.
func (a *Agg) Add(x float64) {
	if a.Count == 0 || x > a.MaxV {
		a.MaxV = x
	}
	a.Count++
	a.Sum += x
}

// Mean returns the sample mean (0 with no observations).
func (a *Agg) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Max returns the largest observation (0 with none).
func (a *Agg) Max() float64 { return a.MaxV }

// Table is a rendered experiment result: the rows/series a paper figure or
// table reports.
type Table struct {
	ID      string
	Title   string
	Paper   string // the values or shape the paper reports, for comparison
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("sim: row has %d cells, table %q has %d columns", len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render formats the table as aligned monospace text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
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
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with sensible precision for table cells.
func F(x float64) string {
	switch {
	case x == math.Trunc(x) && math.Abs(x) < 1e15:
		return fmt.Sprintf("%.0f", x)
	case math.Abs(x) >= 100:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3g", x)
	}
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "*paper: %s*\n\n", t.Paper)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoting cells that
// contain commas or quotes), with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
