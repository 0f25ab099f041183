package experiments

import (
	"fmt"
	"time"

	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/qoe"
	"demuxabr/internal/runpool"
	"demuxabr/internal/stats"
	"demuxabr/internal/trace"
)

// SeedSummary aggregates one player's outcomes across many random network
// traces — the distributional view a single-trace comparison lacks.
type SeedSummary struct {
	Model     string
	QoE       stats.Summary
	Rebuffer  stats.Summary // seconds
	VideoKbps stats.Summary
}

// SeedSweep runs every compared player model over n seeded random-walk
// traces (400–2500 Kbps, 4 s re-draws) and summarizes the distributions,
// with the given worker count (0 = GOMAXPROCS, 1 = serial). Every (seed,
// model) pair is one job with its own engine; each seed's walk is built
// once and only read by the jobs, and the per-model sample vectors are
// accumulated in submission order (seeds outer, models inner), so the
// summaries match the serial sweep exactly.
func SeedSweep(n, parallel int) ([]SeedSummary, error) {
	if n <= 0 {
		n = 10
	}
	content := media.DramaShow()
	m, err := parseCompared(content)
	if err != nil {
		return nil, err
	}
	kinds := comparedKinds()
	walks := make([]trace.Profile, n)
	for seed := range walks {
		walks[seed] = trace.RandomWalk(int64(seed)+1, media.Kbps(400), media.Kbps(2500), 4*time.Second, time.Minute)
	}
	mets, err := runpool.Map(parallel, n*len(kinds), func(i int) (qoe.Metrics, error) {
		seed, mi := i/len(kinds), i%len(kinds)
		spec, err := kindSpec(m, kinds[mi], content, walks[seed])
		if err != nil {
			return qoe.Metrics{}, err
		}
		out, err := play(spec, true)
		if err != nil {
			return qoe.Metrics{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		return out.Metrics, nil
	})
	if err != nil {
		return nil, err
	}
	acc := make([]struct{ qoe, rebuffer, video []float64 }, len(kinds))
	for i, met := range mets {
		a := &acc[i%len(kinds)]
		a.qoe = append(a.qoe, met.Score)
		a.rebuffer = append(a.rebuffer, met.RebufferTime.Seconds())
		a.video = append(a.video, met.AvgVideoBitrate.Kbps())
	}
	out := make([]SeedSummary, 0, len(kinds))
	for mi, k := range kinds {
		a := acc[mi]
		out = append(out, SeedSummary{
			Model:     string(k),
			QoE:       stats.Summarize(a.qoe),
			Rebuffer:  stats.Summarize(a.rebuffer),
			VideoKbps: stats.Summarize(a.video),
		})
	}
	return out, nil
}

// StartupPoint records one player's time to first frame on a fixed link.
type StartupPoint struct {
	Model        string
	StartupDelay time.Duration
}

// StartupDelays measures time-to-first-frame for every compared player
// model at the given link rate, with the given worker count (0 =
// GOMAXPROCS, 1 = serial). Startup is dominated by the initial selection:
// models that start conservative (lowest combination) begin fastest;
// ExoPlayer's 1 Mbps initial estimate starts mid-ladder and pays for it on
// slow links.
func StartupDelays(kbps float64, parallel int) ([]StartupPoint, error) {
	content := media.DramaShow()
	m, err := parseCompared(content)
	if err != nil {
		return nil, err
	}
	kinds := comparedKinds()
	profile := trace.Fixed(media.Kbps(kbps))
	return runpool.Map(parallel, len(kinds), func(i int) (StartupPoint, error) {
		spec, err := kindSpec(m, kinds[i], content, profile)
		if err != nil {
			return StartupPoint{}, err
		}
		out, err := play(spec, true)
		if err != nil {
			return StartupPoint{}, err
		}
		return StartupPoint{Model: out.Model, StartupDelay: out.Result.StartupDelay}, nil
	})
}

// ParetoPoint is one cell of the safety-factor sweep: how the §4 player's
// single most influential knob trades quality against rebuffering risk.
type ParetoPoint struct {
	SafetyFactor float64
	Outcome      Outcome
}

// SafetyFactorSweep runs the best-practice player across safety factors on
// the Fig 3 link — the frontier an operator picks an operating point from
// — with the given worker count (0 = GOMAXPROCS, 1 = serial). The master
// playlist is parsed once; each factor's session is one job.
func SafetyFactorSweep(factors []float64, parallel int) ([]ParetoPoint, error) {
	content := media.DramaShow()
	m, err := core.ParseManifests(content, core.ManifestOptions{}, core.BestPractice)
	if err != nil {
		return nil, err
	}
	return runpool.Map(parallel, len(factors), func(i int) (ParetoPoint, error) {
		f := factors[i]
		out, err := play(core.Spec{
			Content:  content,
			Profile:  trace.Fig3VaryingAvg600(),
			Model:    jointabr.New(m.Combos, jointabr.WithSafetyFactor(f)),
			Manifest: core.ManifestOptions{Combos: m.Combos},
		}, true)
		if err != nil {
			return ParetoPoint{}, fmt.Errorf("safety factor %v: %w", f, err)
		}
		return ParetoPoint{SafetyFactor: f, Outcome: out}, nil
	})
}
