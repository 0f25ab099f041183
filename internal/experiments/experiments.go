// Package experiments defines one runner per table and figure of the
// paper's evaluation, wiring the full stack end-to-end through core:
// content synthesis → manifest generation and re-parsing → player model
// construction from the parsed manifest → discrete-event streaming session
// → QoE metrics.
//
// Every runner is deterministic; the benchmark harness (bench_test.go at
// the repository root) regenerates the paper's rows and series from these.
package experiments

import (
	"fmt"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/trace"
)

// Outcome bundles a session result with its computed metrics.
type Outcome struct {
	Model   string
	Result  *player.Result
	Metrics qoe.Metrics
}

// play runs one session through core.Play. mustFinish rejects a session
// that did not reach the end of the content; the resilience and live
// families pass false, because a session cut short is what they measure.
func play(spec core.Spec, mustFinish bool) (Outcome, error) {
	s, err := core.Play(spec)
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: %w", err)
	}
	if mustFinish && !s.Result.Ended {
		return Outcome{}, fmt.Errorf("experiments: %s: session did not finish", s.Model)
	}
	return Outcome{Model: s.Model, Result: s.Result, Metrics: s.Metrics}, nil
}

// scored applies play's checks to a session run on player directly — the
// four experiments that need an option core.Spec cannot express (cross
// traffic, split paths, the sync window, audio resets) — and scores it
// against allowed.
func scored(res *player.Result, err error, model abr.Algorithm, c *media.Content, allowed []media.Combo) (Outcome, error) {
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: %s: %w", model.Name(), err)
	}
	if !res.Ended {
		return Outcome{}, fmt.Errorf("experiments: %s: session did not finish", model.Name())
	}
	return Outcome{Model: model.Name(), Result: res, Metrics: qoe.Compute(res, c, allowed, qoe.DefaultWeights())}, nil
}

// kindSpec is the session spec of a built-in player kind over manifests
// parsed once per experiment. The model comes from core's constructor
// switch, and off-manifest selections count against the parsed variant
// list for every kind, the DASH ones included (nil when no master
// playlist was parsed).
func kindSpec(m *core.Manifests, kind core.PlayerKind, c *media.Content, profile trace.Profile) (core.Spec, error) {
	model, _, err := m.Model(kind)
	if err != nil {
		return core.Spec{}, err
	}
	return core.Spec{Content: c, Profile: profile, Model: model, Manifest: core.ManifestOptions{Combos: m.Combos}}, nil
}

// soloSpec parses just the manifest one player kind reads and returns
// the spec of that kind's session over the given link.
func soloSpec(kind core.PlayerKind, c *media.Content, mo core.ManifestOptions, profile trace.Profile) (core.Spec, *core.Manifests, error) {
	m, err := core.ParseManifests(c, mo, kind)
	if err != nil {
		return core.Spec{}, nil, err
	}
	spec, err := kindSpec(m, kind, c, profile)
	return spec, m, err
}

// a3First lists the audio renditions top-down, so the master playlist
// names A3 first — the Fig. 3 manifest.
func a3First(c *media.Content) []*media.Track {
	return []*media.Track{c.AudioTracks[2], c.AudioTracks[1], c.AudioTracks[0]}
}

// DominantCombo returns the combination selected for the most chunk
// positions.
func DominantCombo(res *player.Result) media.Combo {
	count := map[string]int{}
	rep := map[string]media.Combo{}
	video := map[int]*media.Track{}
	audio := map[int]*media.Track{}
	for _, ch := range res.Chunks {
		if ch.Type == media.Video {
			video[ch.Index] = ch.Track
		} else {
			audio[ch.Index] = ch.Track
		}
	}
	for i, v := range video {
		a := audio[i]
		if a == nil {
			continue
		}
		cb := media.Combo{Video: v, Audio: a}
		count[cb.String()]++
		rep[cb.String()] = cb
	}
	// Ties broken by name so the answer never depends on map iteration
	// order.
	var best media.Combo
	bestN := -1
	bestKey := ""
	for k, n := range count {
		if n > bestN || (n == bestN && k < bestKey) {
			bestN = n
			bestKey = k
			best = rep[k]
		}
	}
	return best
}

// TimelinePoint is one figure sample: time, selected tracks, buffers,
// estimate — the series the paper's plots show.
type TimelinePoint struct {
	At          time.Duration
	Video       string
	Audio       string
	VideoBuffer time.Duration
	AudioBuffer time.Duration
	Estimate    media.Bps
	Stalled     bool
}

// Timeline converts a result's samples into figure points.
func Timeline(res *player.Result) []TimelinePoint {
	out := make([]TimelinePoint, 0, len(res.Timeline))
	for _, s := range res.Timeline {
		p := TimelinePoint{
			At:          s.At,
			VideoBuffer: s.VideoBuffer,
			AudioBuffer: s.AudioBuffer,
			Stalled:     s.Stalled,
		}
		if s.Video != nil {
			p.Video = s.Video.ID
		}
		if s.Audio != nil {
			p.Audio = s.Audio.ID
		}
		if s.EstimateOK {
			p.Estimate = s.Estimate
		}
		out = append(out, p)
	}
	return out
}
