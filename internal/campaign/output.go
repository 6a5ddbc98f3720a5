package campaign

import (
	"encoding/json"
	"fmt"

	"lambmesh/internal/mesh"
	"lambmesh/internal/sim"
)

// Table renders the campaign result as a sim.Table (one row per grid
// point). The default columns are all derived from the seed and therefore
// byte-identical across worker counts and interrupt/resume; timing adds the
// measured recovery-latency columns, which are wall-clock and excluded from
// that guarantee (DESIGN.md §12).
func (r *Result) Table(timing bool) *sim.Table {
	cols := []string{
		"mesh", "model", "process", "trials",
		"P(conn)", "wilson95", "E[lambs]", "ci95",
		"p50", "p95", "p99", "E[faults]",
	}
	if timing {
		cols = append(cols, "rec_ms", "rec_ci_ms")
	}
	title := "reliability campaign"
	if !r.Complete {
		title += " (paused)"
	}
	t := &sim.Table{
		ID:      "campaign",
		Title:   title,
		Columns: cols,
	}
	for _, p := range r.Points {
		a := &p.Agg
		lo, hi := Wilson(a.Connected, a.Trials)
		pconn := 0.0
		if a.Trials > 0 {
			pconn = float64(a.Connected) / float64(a.Trials)
		}
		row := []string{
			mesh.FormatWidths(p.Mesh),
			p.Model.String(),
			p.Proc.String(),
			fmt.Sprint(a.Trials),
			fmt.Sprintf("%.4f", pconn),
			fmt.Sprintf("[%.4f,%.4f]", lo, hi),
			sim.F(a.Lambs.Mean),
			sim.F(a.Lambs.CI95()),
			sim.F(a.LambHist.Quantile(0.50)),
			sim.F(a.LambHist.Quantile(0.95)),
			sim.F(a.LambHist.Quantile(0.99)),
			sim.F(a.Faults.Mean),
		}
		if timing {
			row = append(row,
				sim.F(a.Recovery.Mean*1e3),
				sim.F(a.Recovery.CI95()*1e3))
		}
		t.AddRow(row...)
	}
	return t
}

// Render formats the result in the requested format: "table" (aligned
// monospace), "csv", or "json". JSON always carries the full aggregates
// (including recovery); for the deterministic formats timing gates the
// recovery columns.
func (r *Result) Render(format string, timing bool) (string, error) {
	switch format {
	case "", "table":
		return r.Table(timing).Render(), nil
	case "csv":
		return r.Table(timing).CSV(), nil
	case "json":
		raw, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return "", fmt.Errorf("campaign: render json: %w", err)
		}
		return string(raw) + "\n", nil
	}
	return "", fmt.Errorf("campaign: unknown format %q (table, csv, json)", format)
}
