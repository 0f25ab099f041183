package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"demuxabr/internal/media"
)

// PrintTable1 renders the Table 1 ladder of a content asset.
func PrintTable1(w io.Writer, c *media.Content) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Track\tAvg (Kbps)\tPeak (Kbps)\tDeclared (Kbps)\tDetail")
	for _, t := range c.AudioTracks {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%d channels, %d kHz\n",
			t.ID, t.AvgBitrate.Kbps(), t.PeakBitrate.Kbps(), t.DeclaredBitrate.Kbps(),
			t.Channels, t.SampleRateHz/1000)
	}
	for _, t := range c.VideoTracks {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%s\n",
			t.ID, t.AvgBitrate.Kbps(), t.PeakBitrate.Kbps(), t.DeclaredBitrate.Kbps(), t.Resolution)
	}
	tw.Flush()
}

// ComboRow is one row of Tables 2/3.
type ComboRow struct {
	Name    string
	AvgKbps float64
	PkKbps  float64
}

// ComboRows converts a combination list into table rows.
func ComboRows(combos []media.Combo) []ComboRow {
	rows := make([]ComboRow, len(combos))
	for i, cb := range combos {
		rows[i] = ComboRow{Name: cb.String(), AvgKbps: cb.AvgBitrate().Kbps(), PkKbps: cb.PeakBitrate().Kbps()}
	}
	return rows
}

// PrintComboTable renders Table 2 (H_all) or Table 3 (H_sub).
func PrintComboTable(w io.Writer, title string, combos []media.Combo) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Combination\tAverage Bitrate (Kbps)\tPeak Bitrate (Kbps)")
	for _, r := range ComboRows(combos) {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\n", r.Name, r.AvgKbps, r.PkKbps)
	}
	tw.Flush()
}

// PrintSeedSummaries renders the seed-sweep distributional view, one line
// per model in sweep order.
func PrintSeedSummaries(w io.Writer, summaries []SeedSummary) {
	for _, s := range summaries {
		fmt.Fprintf(w, "  %-16s qoe med %6.2f  [p10 %6.2f .. p90 %6.2f]   rebuffer med %5.1fs   video med %4.0fK\n",
			s.Model, s.QoE.Median, s.QoE.P10, s.QoE.P90, s.Rebuffer.Median, s.VideoKbps.Median)
	}
}

// PrintOutcomes renders a comparison table of session outcomes.
func PrintOutcomes(w io.Writer, title string, outcomes []Outcome) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Model\tAvgVideo\tAvgAudio\tStalls\tRebuffer\tSwitches(V/A)\tOff-manifest\tMaxImbalance\tQoE")
	for _, o := range outcomes {
		m := o.Metrics
		fmt.Fprintf(tw, "%s\t%.0fK\t%.0fK\t%d\t%.1fs\t%d/%d\t%d\t%.1fs\t%.2f\n",
			o.Model, m.AvgVideoBitrate.Kbps(), m.AvgAudioBitrate.Kbps(),
			m.StallCount, m.RebufferTime.Seconds(),
			m.VideoSwitches, m.AudioSwitches, m.OffManifest,
			m.MaxImbalance.Seconds(), m.Score)
	}
	tw.Flush()
}

// matrixCell is one outcome of a model × column matrix: col is the
// column's position in the experiment's ordered axis, label its header.
type matrixCell struct {
	col   int
	label string
	out   Outcome
}

// matrixSection is one titled table of a matrix: value renders a cell.
type matrixSection struct {
	title string
	value func(Outcome) string
}

// printMatrix renders each section as a model × column table. Rows are
// models in first-seen order; cells join their column on col rather than
// on the label, so near-equal axis values can't silently merge or split
// columns. Sections are separated by a blank line.
func printMatrix(w io.Writer, cells []matrixCell, sections ...matrixSection) {
	ncols := 0
	for _, c := range cells {
		if c.col+1 > ncols {
			ncols = c.col + 1
		}
	}
	labels := make([]string, ncols)
	var models []string
	rows := map[string][]Outcome{}
	for _, c := range cells {
		labels[c.col] = c.label
		if rows[c.out.Model] == nil {
			models = append(models, c.out.Model)
			rows[c.out.Model] = make([]Outcome, ncols)
		}
		rows[c.out.Model][c.col] = c.out
	}
	for i, sec := range sections {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, sec.title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "Model")
		for _, l := range labels {
			fmt.Fprintf(tw, "\t%s", l)
		}
		fmt.Fprintln(tw)
		for _, m := range models {
			fmt.Fprint(tw, m)
			for _, o := range rows[m] {
				fmt.Fprintf(tw, "\t%s", sec.value(o))
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
}
