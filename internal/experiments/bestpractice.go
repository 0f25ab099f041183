package experiments

import (
	"fmt"
	"math"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/exoplayer"
	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/core"
	"demuxabr/internal/manifest/hls"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/trace"
)

// This file holds the experiments that validate the paper's §4 best
// practices beyond the head-to-head comparison: the media-playlist repair
// of the ExoPlayer HLS degradation, and the different-servers (split-path)
// scenario that motivates per-track bandwidth declarations.

// RepairResult contrasts the broken ExoPlayer HLS behaviour of Fig. 3 with
// the §4.1 client-side fix (download second-level media playlists, recover
// per-track bitrates, adapt over the listed variants).
type RepairResult struct {
	Broken   Outcome
	Repaired Outcome
	// RecoveredBitrateErr is the largest relative error between the
	// bitrates recovered from the media playlists and the true track
	// averages — it must be small for the repair to be meaningful.
	RecoveredBitrateErr float64
}

// RecoveredLadders rebuilds track ladders the way a §4.1-compliant HLS
// client does: parse each track's media playlist and derive per-track
// peak/average bitrates from the byte ranges.
func RecoveredLadders(c *media.Content) (video, audio media.Ladder, maxRelErr float64, err error) {
	for _, tr := range c.Tracks() {
		pl, err := core.ParseMediaPlaylist(c, tr)
		if err != nil {
			return nil, nil, 0, err
		}
		peak, avg, err := hls.TrackBitrate(pl)
		if err != nil {
			return nil, nil, 0, err
		}
		maxRelErr = math.Max(maxRelErr, math.Abs(float64(avg-tr.AvgBitrate)/float64(tr.AvgBitrate)))
		rec := &media.Track{
			ID:              tr.ID,
			Type:            tr.Type,
			AvgBitrate:      avg,
			PeakBitrate:     peak,
			DeclaredBitrate: peak,
			Resolution:      tr.Resolution,
			Channels:        tr.Channels,
			SampleRateHz:    tr.SampleRateHz,
		}
		if tr.Type == media.Video {
			video = append(video, rec)
		} else {
			audio = append(audio, rec)
		}
	}
	return video, audio, maxRelErr, nil
}

// Fig3Repaired reruns the Fig. 3 conditions with the §4.1 repair applied:
// the client reads the second-level media playlists before adapting. Audio
// adaptation returns, selections stay on the manifest, and rebuffering
// drops versus the broken player.
func Fig3Repaired() (RepairResult, error) {
	content := media.DramaShow()
	spec, m, err := soloSpec(core.ExoPlayerHLS, content, core.ManifestOptions{AudioOrder: a3First(content)}, trace.Fig3VaryingAvg600())
	if err != nil {
		return RepairResult{}, err
	}
	broken, err := play(spec, true)
	if err != nil {
		return RepairResult{}, err
	}
	video, audio, relErr, err := RecoveredLadders(content)
	if err != nil {
		return RepairResult{}, err
	}
	// Re-key the master's variants onto the recovered tracks.
	variants := make([]media.Combo, len(m.Combos))
	for i, cb := range m.Combos {
		variants[i] = media.Combo{Video: video.ByID(cb.Video.ID), Audio: audio.ByID(cb.Audio.ID)}
		if variants[i].Video == nil || variants[i].Audio == nil {
			return RepairResult{}, fmt.Errorf("experiments: variant %s not recoverable", cb)
		}
	}
	spec.Model = exoplayer.NewHLSRepaired(variants)
	repaired, err := play(spec, true)
	if err != nil {
		return RepairResult{}, err
	}
	return RepairResult{Broken: broken, Repaired: repaired, RecoveredBitrateErr: relErr}, nil
}

// SplitPathResult contrasts aggregate-budget selection with path-aware
// selection when audio and video are served over different bottlenecks.
type SplitPathResult struct {
	// VideoPathKbps / AudioPathKbps are the two links' rates.
	VideoPathKbps float64
	AudioPathKbps float64
	Shared        Outcome // single aggregate bandwidth budget
	PathAware     Outcome // per-component path budgets
}

// SplitPath runs the §4.1 different-servers scenario: a fast video path
// (4 Mbps) and a slow audio path (250 Kbps — enough for A2, not A3).
//
// A player that reasons about one aggregate bandwidth is wrong in both
// directions here: its active-period meter is dominated by the slow audio
// transfers, so the estimate collapses toward the audio path's rate and
// the 4 Mbps video path is starved at the lowest rungs. The path-aware
// player budgets each component against its own path's estimate and
// reaches the quality both paths can actually sustain. This is why §4.1
// calls per-track bandwidth declarations "particularly important when
// audio and video are fetched over different network paths".
func SplitPath() (SplitPathResult, error) {
	content := media.DramaShow()
	m, err := core.ParseManifests(content, core.ManifestOptions{}, core.BestPractice)
	if err != nil {
		return SplitPathResult{}, err
	}
	r := SplitPathResult{VideoPathKbps: 4000, AudioPathKbps: 250}
	run := func(model abr.Algorithm) (Outcome, error) {
		eng := netsim.NewEngine()
		videoLink := netsim.NewLink(eng, trace.Fixed(media.Kbps(r.VideoPathKbps)))
		audioLink := netsim.NewLink(eng, trace.Fixed(media.Kbps(r.AudioPathKbps)))
		res, err := player.RunSplit(videoLink, audioLink, player.Config{Content: content, Model: model})
		return scored(res, err, model, content, m.Combos)
	}
	shared, _, err := m.Model(core.BestPractice)
	if err != nil {
		return SplitPathResult{}, err
	}
	if r.Shared, err = run(shared); err != nil {
		return SplitPathResult{}, err
	}
	if r.PathAware, err = run(jointabr.New(m.Combos, jointabr.WithPathAwareness())); err != nil {
		return SplitPathResult{}, err
	}
	return r, nil
}

// SyncGranularityPoint is one cell of the §4.2 synchronization-granularity
// sweep: the best-practice player with a given audio/video skew bound.
type SyncGranularityPoint struct {
	// Window is the allowed lead in chunk positions (0 = strict pairing).
	Window  int
	Outcome Outcome
}

// SyncGranularity quantifies §4.2's "synchronize ... at the chunk level or
// in terms of a small number of chunks": the best-practice player runs on
// the Fig. 3 link with increasing skew bounds. Imbalance grows with the
// window while QoE stays flat for small windows — fine-granularity sync is
// cheap.
func SyncGranularity(windows []int) ([]SyncGranularityPoint, error) {
	content := media.DramaShow()
	m, err := core.ParseManifests(content, core.ManifestOptions{}, core.BestPractice)
	if err != nil {
		return nil, err
	}
	var out []SyncGranularityPoint
	for _, w := range windows {
		model, combos, err := m.Model(core.BestPractice)
		if err != nil {
			return nil, err
		}
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.Fig3VaryingAvg600())
		res, err := player.Run(link, player.Config{Content: content, Model: model, SyncWindow: w})
		o, err := scored(res, err, model, content, combos)
		if err != nil {
			return nil, fmt.Errorf("sync window %d: %w", w, err)
		}
		out = append(out, SyncGranularityPoint{Window: w, Outcome: o})
	}
	return out, nil
}
