package experiments

import (
	"fmt"
	"io"

	"demuxabr/internal/media"
	"demuxabr/internal/runpool"
	"demuxabr/internal/trace"
)

// SweepPoint is one cell of a bandwidth sweep: a player model's outcome at
// a fixed link rate.
type SweepPoint struct {
	Kbps float64
	// KbpsIndex is the position of Kbps in the sweep's ordered bandwidth
	// list. PrintSweep joins cells on this index rather than on the raw
	// float, so near-equal bandwidths can't silently merge or split
	// columns.
	KbpsIndex int
	Outcome   Outcome
}

// DefaultSweepKbps spans the drama show's operating range: below the
// cheapest combination (V1+A1, 239 Kbps average) up to beyond the most
// expensive (V6+A3, 3112 Kbps average).
func DefaultSweepKbps() []float64 {
	return []float64{400, 600, 900, 1300, 2000, 3000, 4500}
}

// BandwidthSweep runs every compared player model at each fixed bandwidth
// — the crossover analysis: who wins where across the operating range —
// with the given worker count (0 = GOMAXPROCS, 1 = serial). The manifests
// are parsed once for the whole sweep; each (bandwidth, model) job builds
// only its own model and engine, and the points come back in the serial
// order: bandwidths outer, models inner.
func BandwidthSweep(kbps []float64, parallel int) ([]SweepPoint, error) {
	content := media.DramaShow()
	m, err := parseCompared(content)
	if err != nil {
		return nil, err
	}
	kinds := comparedKinds()
	profiles := make([]trace.Profile, len(kbps))
	for i, k := range kbps {
		profiles[i] = trace.Fixed(media.Kbps(k))
	}
	return runpool.Map(parallel, len(kbps)*len(kinds), func(i int) (SweepPoint, error) {
		ki, mi := i/len(kinds), i%len(kinds)
		spec, err := kindSpec(m, kinds[mi], content, profiles[ki])
		if err != nil {
			return SweepPoint{}, err
		}
		out, err := play(spec, true)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("sweep %v Kbps: %w", kbps[ki], err)
		}
		return SweepPoint{Kbps: kbps[ki], KbpsIndex: ki, Outcome: out}, nil
	})
}

// PrintSweep renders the sweep as a QoE matrix (rows: models, columns:
// bandwidths) followed by a rebuffering matrix. Columns join on
// SweepPoint.KbpsIndex; the Kbps value only labels the header.
func PrintSweep(w io.Writer, points []SweepPoint) {
	cells := make([]matrixCell, len(points))
	for i, p := range points {
		cells[i] = matrixCell{col: p.KbpsIndex, label: fmt.Sprintf("%.0fK", p.Kbps), out: p.Outcome}
	}
	printMatrix(w, cells,
		matrixSection{"QoE score by link bandwidth:", func(o Outcome) string {
			return fmt.Sprintf("%.2f", o.Metrics.Score)
		}},
		matrixSection{"Rebuffering seconds by link bandwidth:", func(o Outcome) string {
			return fmt.Sprintf("%.1f", o.Metrics.RebufferTime.Seconds())
		}})
}
