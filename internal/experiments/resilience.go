package experiments

import (
	"fmt"
	"io"

	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/runpool"
	"demuxabr/internal/trace"
)

// ResilienceSeed keys every resilience experiment's fault plan, so the
// sweep and the policy comparison face the identical failure sequence.
const ResilienceSeed = 1009

// ResiliencePoint is one (fault rate, player) cell of the resilience sweep.
type ResiliencePoint struct {
	Rate float64
	// RateIndex is the position of Rate in the sweep's ordered rate list;
	// PrintResilience joins columns on it.
	RateIndex int
	Outcome   Outcome
}

// DefaultFaultRates spans clean operation to heavy origin instability.
func DefaultFaultRates() []float64 {
	return []float64{0, 0.005, 0.01, 0.02, 0.05}
}

// ResilienceSweep runs every compared player model under each
// per-segment fault rate on the varying-600 trace, all with the default
// robustness policy — who degrades how, under identical failure sequences
// — with the given worker count (0 = GOMAXPROCS, 1 = serial). Sessions
// that do not finish are kept: an aborted session is the measurement.
// Fault plans are hash-seeded per (track, chunk), so the points are
// byte-identical at any worker count; they come back in the serial order:
// rates outer, models inner.
func ResilienceSweep(rates []float64, parallel int) ([]ResiliencePoint, error) {
	content := media.DramaShow()
	m, err := parseCompared(content)
	if err != nil {
		return nil, err
	}
	kinds := comparedKinds()
	pol := faults.DefaultPolicy()
	return runpool.Map(parallel, len(rates)*len(kinds), func(i int) (ResiliencePoint, error) {
		ri, mi := i/len(kinds), i%len(kinds)
		spec, err := kindSpec(m, kinds[mi], content, trace.Fig3VaryingAvg600())
		if err != nil {
			return ResiliencePoint{}, err
		}
		spec.Faults = &faults.Plan{Seed: ResilienceSeed, Rate: rates[ri]}
		spec.Robustness = &pol
		out, err := play(spec, false)
		if err != nil {
			return ResiliencePoint{}, fmt.Errorf("resilience rate %v: %w", rates[ri], err)
		}
		return ResiliencePoint{Rate: rates[ri], RateIndex: ri, Outcome: out}, nil
	})
}

// PrintResilience renders the sweep as matrices over fault rate: session
// outcome with QoE, rebuffering, and the repair work performed.
func PrintResilience(w io.Writer, points []ResiliencePoint) {
	cells := make([]matrixCell, len(points))
	for i, p := range points {
		cells[i] = matrixCell{col: p.RateIndex, label: fmt.Sprintf("%.1f%%", p.Rate*100), out: p.Outcome}
	}
	printMatrix(w, cells,
		matrixSection{"QoE score by per-segment fault rate (abort = session cut short):", func(o Outcome) string {
			if o.Result.Aborted {
				return "abort"
			}
			return fmt.Sprintf("%.2f", o.Metrics.Score)
		}},
		matrixSection{"Rebuffering seconds by fault rate:", func(o Outcome) string {
			return fmt.Sprintf("%.1f", o.Result.RebufferTime().Seconds())
		}},
		matrixSection{"Repair work (faults/retries/failovers) by fault rate:", func(o Outcome) string {
			return fmt.Sprintf("%d/%d/%d", len(o.Result.Faults), o.Result.Retries, len(o.Result.Failovers))
		}})
}

// PolicyResilience is the best-practice player at a 1% per-segment fault
// rate on the varying-600 trace, with the robustness policy on versus off
// — the paper's "best practices" extended to the error path: the same
// player under the same failure sequence either finishes or dies,
// depending only on its download-error handling.
func PolicyResilience() (on, off Outcome, err error) {
	content := media.DramaShow()
	m, err := core.ParseManifests(content, core.ManifestOptions{}, core.BestPractice)
	if err != nil {
		return Outcome{}, Outcome{}, err
	}
	run := func(pol *faults.Policy) (Outcome, error) {
		spec, err := kindSpec(m, core.BestPractice, content, trace.Fig3VaryingAvg600())
		if err != nil {
			return Outcome{}, err
		}
		spec.Faults = &faults.Plan{Seed: ResilienceSeed, Rate: 0.01}
		spec.Robustness = pol
		return play(spec, false)
	}
	pol := faults.DefaultPolicy()
	if on, err = run(&pol); err != nil {
		return Outcome{}, Outcome{}, err
	}
	if off, err = run(nil); err != nil {
		return Outcome{}, Outcome{}, err
	}
	return on, off, nil
}

// PrintPolicyResilience renders the on/off comparison.
func PrintPolicyResilience(w io.Writer, on, off Outcome) {
	row := func(label string, o Outcome) {
		status := "completed"
		if o.Result.Aborted {
			status = "ABORTED (" + o.Result.AbortReason + ")"
		} else if !o.Result.Ended {
			status = "did not finish"
		}
		fmt.Fprintf(w, "  %-10s %s\n", label+":", status)
		fmt.Fprintf(w, "             qoe %.2f, %d stalls (%.1fs), %d faults, %d retries, %d failovers, %.1f KB wasted\n",
			o.Metrics.Score, len(o.Result.Stalls), o.Result.RebufferTime().Seconds(),
			len(o.Result.Faults), o.Result.Retries, len(o.Result.Failovers),
			float64(o.Result.WastedFaultBytes())/1000)
	}
	fmt.Fprintf(w, "best-practice player, 1%% per-segment faults, varying-600 trace (seed %d):\n", ResilienceSeed)
	row("policy on", on)
	row("policy off", off)
}
