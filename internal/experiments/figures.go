package experiments

import (
	"fmt"
	"time"

	"demuxabr/internal/abr/exoplayer"
	"demuxabr/internal/abr/shaka"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// Fig2Result captures an ExoPlayer-DASH experiment of Fig. 2: the selected
// combination and the better combination the predetermination excluded.
type Fig2Result struct {
	Outcome Outcome
	// Predetermined is ExoPlayer's combination subset for the ladder.
	Predetermined []media.Combo
	// Dominant is the combination selected for most of the session.
	Dominant media.Combo
	// BetterExcluded is the combination the paper argues is preferable
	// (V3+B3 for Fig 2(a), V3+C1 for Fig 2(b)).
	BetterExcluded media.Combo
	// BetterFits reports that BetterExcluded's declared bandwidth is within
	// the link capacity — i.e. it was feasible but unreachable.
	BetterFits bool
	// BetterPredetermined reports whether BetterExcluded is reachable at
	// all (it must be false: that is the finding).
	BetterPredetermined bool
}

func fig2(content *media.Content, betterVideo, betterAudio string) (Fig2Result, error) {
	spec, m, err := soloSpec(core.ExoPlayerDASH, content, core.ManifestOptions{}, trace.Fig2Bandwidth())
	if err != nil {
		return Fig2Result{}, err
	}
	out, err := play(spec, true)
	if err != nil {
		return Fig2Result{}, err
	}
	// Resolve the "better" combination against the parsed ladders.
	better := media.Combo{Video: m.Video.ByID(betterVideo), Audio: m.Audio.ByID(betterAudio)}
	if better.Video == nil || better.Audio == nil {
		return Fig2Result{}, fmt.Errorf("experiments: better combo %s+%s not in ladders", betterVideo, betterAudio)
	}
	r := Fig2Result{
		Outcome:        out,
		Predetermined:  spec.Model.(*exoplayer.DASH).Combos(),
		Dominant:       DominantCombo(out.Result),
		BetterExcluded: better,
		BetterFits:     better.DeclaredBitrate() <= trace.Fig2Bandwidth().RateAt(0),
	}
	for _, cb := range r.Predetermined {
		if cb.String() == better.String() {
			r.BetterPredetermined = true
		}
	}
	return r, nil
}

// Fig2a runs the first Fig. 2 experiment: Table 1 video with the low-rate B
// audio ladder at a fixed 900 Kbps. ExoPlayer settles on V3+B2 although
// V3+B3 (higher audio quality, 601 Kbps declared) fits the link.
func Fig2a() (Fig2Result, error) {
	return fig2(media.DramaShowLowAudio(), "V3", "B3")
}

// Fig2b runs the second Fig. 2 experiment: the high-rate C audio ladder.
// ExoPlayer settles on V2+C2 (very low video + high audio) although V3+C1
// (669 Kbps declared) fits.
func Fig2b() (Fig2Result, error) {
	return fig2(media.DramaShowHighAudio(), "V3", "C1")
}

// Fig3Result captures the ExoPlayer-HLS experiment of Fig. 3: fixed audio,
// off-manifest selections, stalls.
type Fig3Result struct {
	Outcome Outcome
	// FixedAudio is the rendition ExoPlayer pinned (the first listed).
	FixedAudio string
	// AudioTrackChanges counts audio switches (must be 0: no adaptation).
	AudioTrackChanges int
	// OffManifestChunks counts chunk positions streamed as combinations
	// outside H_sub.
	OffManifestChunks int
	// Timeline carries the Fig. 3 series (tracks, buffers, stall shading).
	Timeline []TimelinePoint
}

// Fig3 runs the first ExoPlayer HLS experiment: manifest H_sub with A3
// listed first, over the time-varying average-600 Kbps link. The audio
// stays pinned at A3, stalls accumulate, and selected pairs leave the
// manifest's subset. A non-nil rec records the session's flight-recorder
// timeline — the one the docs' stall-diagnosis walkthrough is drawn from.
func Fig3(rec *timeline.Recorder) (Fig3Result, error) {
	content := media.DramaShow()
	return exoHLS(content, core.ManifestOptions{AudioOrder: a3First(content)}, trace.Fig3VaryingAvg600(), rec)
}

// exoHLS runs ExoPlayer-HLS on one master playlist and link, reporting
// the rendition it pinned.
func exoHLS(content *media.Content, mo core.ManifestOptions, profile trace.Profile, rec *timeline.Recorder) (Fig3Result, error) {
	spec, _, err := soloSpec(core.ExoPlayerHLS, content, mo, profile)
	if err != nil {
		return Fig3Result{}, err
	}
	spec.Recorder = rec
	out, err := play(spec, true)
	if err != nil {
		return Fig3Result{}, err
	}
	return Fig3Result{
		Outcome:           out,
		FixedAudio:        spec.Model.(*exoplayer.HLS).FixedAudio().ID,
		AudioTrackChanges: out.Metrics.AudioSwitches,
		OffManifestChunks: out.Metrics.OffManifest,
		Timeline:          Timeline(out.Result),
	}, nil
}

// ExoHLSLowFirst runs the second ExoPlayer HLS experiment (§3.2, figures
// omitted in the paper): A1 listed first and a 5 Mbps link — the player
// streams the lowest-quality audio for the whole session despite the
// ample bandwidth.
func ExoHLSLowFirst() (Fig3Result, error) {
	// The default rendition order is the ladder order: A1 first.
	return exoHLS(media.DramaShow(), core.ManifestOptions{}, trace.ExoHLSFixedBandwidth(), nil)
}

// Fig4Result captures a Shaka experiment of Fig. 4.
type Fig4Result struct {
	Outcome Outcome
	// EstimateStart/EstimateEnd sample the bandwidth-estimate series.
	EstimateStart media.Bps
	EstimateEnd   media.Bps
	// AnyValidSample reports whether any interval passed the 16 KB filter.
	AnyValidSample bool
	// Dominant is the most-streamed combination.
	Dominant media.Combo
	// Timeline carries the Fig. 4 series.
	Timeline []TimelinePoint
}

// Fig4a runs the first Shaka experiment: H_all over a constant 1 Mbps link.
// No throughput interval ever reaches 16 KB, so the 500 Kbps default sticks
// and V2+A2 streams throughout.
func Fig4a() (Fig4Result, error) {
	return runFig4(trace.Fig4aBandwidth())
}

// Fig4b runs the second Shaka experiment: the bimodal average-600 Kbps
// profile. Only high-phase intervals pass the filter, so the estimate
// swings from the 500 Kbps default (underestimation) to ~1.5 Mbps
// (overestimation), driving selections the link cannot sustain and heavy
// rebuffering.
func Fig4b() (Fig4Result, error) {
	return runFig4(trace.Fig4bBimodal600())
}

func runFig4(profile trace.Profile) (Fig4Result, error) {
	content := media.DramaShow()
	spec, _, err := soloSpec(core.Shaka, content, core.ManifestOptions{Combos: media.HAll(content)}, profile)
	if err != nil {
		return Fig4Result{}, err
	}
	out, err := play(spec, true)
	if err != nil {
		return Fig4Result{}, err
	}
	r := Fig4Result{
		Outcome:        out,
		AnyValidSample: spec.Model.(*shaka.Player).HasValidSample(),
		Dominant:       DominantCombo(out.Result),
		Timeline:       Timeline(out.Result),
	}
	if n := len(out.Result.Timeline); n > 0 {
		r.EstimateStart = out.Result.Timeline[0].Estimate
		r.EstimateEnd = out.Result.Timeline[n-1].Estimate
	}
	return r, nil
}

// Fig5Result captures the dash.js experiment of Fig. 5.
type Fig5Result struct {
	Outcome Outcome
	// Combos are the distinct audio/video pairings streamed.
	Combos []media.Combo
	// UndesirablePairings flags combinations pairing the lowest-rung videos
	// (V1/V2) with the highest audio (the §3.4 "clearly undesirable" case).
	UndesirablePairings []media.Combo
	// MaxImbalance is the Fig. 5(b) buffer divergence.
	MaxImbalance time.Duration
	// Timeline carries the Fig. 5 series.
	Timeline []TimelinePoint
}

// Fig5 runs the dash.js experiment: DASH manifest, fixed 700 Kbps link,
// fully independent per-type DYNAMIC adaptation. Selections fluctuate
// across pairings including the undesirable V2+A3, and the audio and video
// buffers diverge.
func Fig5() (Fig5Result, error) {
	spec, m, err := soloSpec(core.DashJS, media.DramaShow(), core.ManifestOptions{}, trace.Fig5Bandwidth())
	if err != nil {
		return Fig5Result{}, err
	}
	out, err := play(spec, true)
	if err != nil {
		return Fig5Result{}, err
	}
	r := Fig5Result{
		Outcome:      out,
		Combos:       out.Result.CombosSelected(),
		MaxImbalance: out.Result.MaxBufferImbalance(),
		Timeline:     Timeline(out.Result),
	}
	topAudio := m.Audio[len(m.Audio)-1]
	for _, cb := range r.Combos {
		if cb.Audio.ID == topAudio.ID && m.Video.Index(cb.Video) <= 1 {
			r.UndesirablePairings = append(r.UndesirablePairings, cb)
		}
	}
	return r, nil
}
