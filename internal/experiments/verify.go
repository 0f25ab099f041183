package experiments

import (
	"fmt"
	"io"
	"time"

	"demuxabr/internal/media"
)

// Check is one verifiable paper expectation.
type Check struct {
	ID     string
	Claim  string
	Pass   bool
	Detail string
}

// VerifyAll evaluates every figure's qualitative claim against a fresh run
// and returns the checklist — the machine-checkable core of EXPERIMENTS.md.
func VerifyAll() ([]Check, error) {
	var checks []Check
	add := func(id, claim string, pass bool, detail string, args ...any) {
		checks = append(checks, Check{ID: id, Claim: claim, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}

	// Tables.
	c := media.DramaShow()
	all, sub := media.HAll(c), media.HSub(c)
	add("table2", "18 combinations, peak 253..4838 Kbps",
		len(all) == 18 && all[0].PeakBitrate() == media.Kbps(253) && all[17].PeakBitrate() == media.Kbps(4838),
		"n=%d first=%v last=%v", len(all), all[0].PeakBitrate(), all[17].PeakBitrate())
	add("table3", "curated subset V1+A1..V6+A3",
		len(sub) == 6 && sub[0].String() == "V1+A1" && sub[5].String() == "V6+A3",
		"%v", sub)

	// Fig 2.
	f2a, err := Fig2a()
	if err != nil {
		return nil, err
	}
	add("fig2a", "ExoPlayer DASH selects V3+B2; V3+B3 feasible but excluded",
		f2a.Dominant.String() == "V3+B2" && f2a.BetterFits && !f2a.BetterPredetermined,
		"dominant=%s fits=%v predetermined=%v", f2a.Dominant, f2a.BetterFits, f2a.BetterPredetermined)
	f2b, err := Fig2b()
	if err != nil {
		return nil, err
	}
	add("fig2b", "ExoPlayer DASH selects V2+C2; V3+C1 feasible but excluded",
		f2b.Dominant.String() == "V2+C2" && f2b.BetterFits && !f2b.BetterPredetermined,
		"dominant=%s fits=%v predetermined=%v", f2b.Dominant, f2b.BetterFits, f2b.BetterPredetermined)

	// Fig 3.
	f3, err := Fig3(nil)
	if err != nil {
		return nil, err
	}
	add("fig3", "ExoPlayer HLS pins A3, stalls repeatedly, leaves the manifest",
		f3.FixedAudio == "A3" && f3.AudioTrackChanges == 0 &&
			f3.Outcome.Metrics.StallCount >= 2 && f3.OffManifestChunks > 0,
		"audio=%s switches=%d stalls=%d rebuffer=%.1fs off-manifest=%d",
		f3.FixedAudio, f3.AudioTrackChanges, f3.Outcome.Metrics.StallCount,
		f3.Outcome.Metrics.RebufferTime.Seconds(), f3.OffManifestChunks)

	// Fig 4.
	f4a, err := Fig4a()
	if err != nil {
		return nil, err
	}
	add("fig4a", "Shaka estimate stuck at 500 Kbps default; V2+A2 throughout",
		!f4a.AnyValidSample && f4a.EstimateEnd == media.Kbps(500) && f4a.Dominant.String() == "V2+A2",
		"samples=%v estimate=%v dominant=%s", f4a.AnyValidSample, f4a.EstimateEnd, f4a.Dominant)
	f4b, err := Fig4b()
	if err != nil {
		return nil, err
	}
	add("fig4b", "Shaka under- then over-estimates; V2+A2 -> V3+A3; heavy rebuffering",
		f4b.AnyValidSample && f4b.EstimateEnd > media.Kbps(1000) &&
			f4b.Dominant.String() == "V3+A3" && f4b.Outcome.Metrics.RebufferTime > 15*time.Second,
		"estimate=%v dominant=%s rebuffer=%.1fs",
		f4b.EstimateEnd, f4b.Dominant, f4b.Outcome.Metrics.RebufferTime.Seconds())

	// Fig 5.
	f5, err := Fig5()
	if err != nil {
		return nil, err
	}
	add("fig5", "dash.js fluctuates across combos incl. undesirable; buffers unbalanced",
		len(f5.Combos) >= 3 && len(f5.UndesirablePairings) > 0 && f5.MaxImbalance >= 5*time.Second,
		"combos=%d undesirable=%v imbalance=%.1fs", len(f5.Combos), f5.UndesirablePairings, f5.MaxImbalance.Seconds())

	// §4 validations.
	rep, err := Fig3Repaired()
	if err != nil {
		return nil, err
	}
	add("repair", "§4.1 media-playlist repair restores audio adaptation and stays on-manifest",
		rep.Repaired.Metrics.OffManifest == 0 &&
			rep.Repaired.Metrics.RebufferTime < rep.Broken.Metrics.RebufferTime,
		"off-manifest=%d rebuffer %.1fs -> %.1fs", rep.Repaired.Metrics.OffManifest,
		rep.Broken.Metrics.RebufferTime.Seconds(), rep.Repaired.Metrics.RebufferTime.Seconds())
	sp, err := SplitPath()
	if err != nil {
		return nil, err
	}
	add("splitpath", "§4.1 per-path budgets beat an aggregate budget on split paths",
		sp.PathAware.Metrics.Score > sp.Shared.Metrics.Score &&
			sp.PathAware.Metrics.AvgVideoBitrate > sp.Shared.Metrics.AvgVideoBitrate,
		"video %0.fK vs %0.fK, qoe %.2f vs %.2f",
		sp.PathAware.Metrics.AvgVideoBitrate.Kbps(), sp.Shared.Metrics.AvgVideoBitrate.Kbps(),
		sp.PathAware.Metrics.Score, sp.Shared.Metrics.Score)

	return checks, nil
}

// PrintChecks renders the checklist; it returns the failure count.
func PrintChecks(w io.Writer, checks []Check) int {
	failures := 0
	for _, ch := range checks {
		status := "PASS"
		if !ch.Pass {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "%s %-10s %s\n            measured: %s\n", status, ch.ID, ch.Claim, ch.Detail)
	}
	fmt.Fprintf(w, "%d/%d checks passed\n", len(checks)-failures, len(checks))
	return failures
}
