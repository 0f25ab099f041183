package experiments

import (
	"fmt"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/runpool"
	"demuxabr/internal/trace"
)

// Scenario names one network condition from the paper's experiments, used
// to compare all players head-to-head.
type Scenario struct {
	// Name identifies the scenario.
	Name string
	// Content is the asset.
	Content *media.Content
	// Profile is the link condition.
	Profile trace.Profile
}

// Scenarios returns the paper's network conditions as head-to-head arenas.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "fixed-900k (Fig 2)", Content: media.DramaShow(), Profile: trace.Fig2Bandwidth()},
		{Name: "varying-avg-600k (Fig 3)", Content: media.DramaShow(), Profile: trace.Fig3VaryingAvg600()},
		{Name: "fixed-1M (Fig 4a)", Content: media.DramaShow(), Profile: trace.Fig4aBandwidth()},
		{Name: "bimodal-avg-600k (Fig 4b)", Content: media.DramaShow(), Profile: trace.Fig4bBimodal600()},
		{Name: "fixed-700k (Fig 5)", Content: media.DramaShow(), Profile: trace.Fig5Bandwidth()},
	}
}

// comparedKinds are the player models of the head-to-head comparisons, in
// print order: the three studied players (ExoPlayer under both manifests),
// the best-practice design, and the joint designs.
func comparedKinds() []core.PlayerKind {
	return []core.PlayerKind{
		core.ExoPlayerDASH, core.ExoPlayerHLS, core.Shaka, core.DashJS,
		core.BestPractice, core.BolaJoint, core.MPCJoint, core.DynamicJoint,
	}
}

// parseCompared parses a content's manifests once for every compared
// kind, each reading what a real deployment would give it: ExoPlayer-DASH
// and dash.js the MPD; ExoPlayer-HLS, Shaka and the joint players the
// H_sub master playlist (A3 listed first, as in Fig. 3).
func parseCompared(c *media.Content) (*core.Manifests, error) {
	return core.ParseManifests(c, core.ManifestOptions{AudioOrder: a3First(c)}, comparedKinds()...)
}

// Compare runs every compared player model under one scenario with the
// given worker count (0 = GOMAXPROCS, 1 = serial). Each model plays its
// session on its own engine; outcomes keep the comparison order.
func Compare(s Scenario, parallel int) ([]Outcome, error) {
	m, err := parseCompared(s.Content)
	if err != nil {
		return nil, err
	}
	kinds := comparedKinds()
	return runpool.Map(parallel, len(kinds), func(i int) (Outcome, error) {
		spec, err := kindSpec(m, kinds[i], s.Content, s.Profile)
		if err != nil {
			return Outcome{}, err
		}
		out, err := play(spec, true)
		if err != nil {
			return Outcome{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		return out, nil
	})
}

// modelSpec is a deferred construction of a custom player model, so every
// session gets its own stateful model.
type modelSpec struct {
	name  string
	build func() abr.Algorithm
}

// ablationSpecs returns deferred constructors for the best-practice player
// and its ablations:
//
//   - full: all four §4 practices;
//   - no-allowed-list: adapts over all 18 combinations (practice 2 off);
//   - separate-estimators: per-type estimates summed (practice 3, shared
//     estimator clause, off);
//   - no-damping: no switch hysteresis (practice 3, stability clause, off);
//   - independent-scheduling: free-running per-type downloads (practice 4
//     off).
func ablationSpecs(hsub, hall []media.Combo) []modelSpec {
	return []modelSpec{
		{"full", func() abr.Algorithm { return jointabr.New(hsub) }},
		{"no-allowed-list", func() abr.Algorithm { return jointabr.New(hall) }},
		{"separate-estimators", func() abr.Algorithm { return jointabr.New(hsub, jointabr.WithSeparateEstimators()) }},
		{"no-damping", func() abr.Algorithm { return jointabr.New(hsub, jointabr.WithoutDamping()) }},
		{"independent-scheduling", func() abr.Algorithm { return jointabr.NewIndependent(hsub) }},
	}
}

// AblationNames lists the best-practice player and its ablations in print
// order: the keys of Ablate's result.
func AblationNames() []string {
	var names []string
	for _, sp := range ablationSpecs(nil, nil) {
		names = append(names, sp.name)
	}
	return names
}

// Ablate runs the best-practice player and all ablations under a scenario
// with the given worker count (0 = GOMAXPROCS, 1 = serial).
func Ablate(s Scenario, parallel int) (map[string]Outcome, error) {
	allowed := media.HSub(s.Content)
	specs := ablationSpecs(allowed, media.HAll(s.Content))
	outs, err := runpool.Map(parallel, len(specs), func(i int) (Outcome, error) {
		o, err := play(core.Spec{
			Content:  s.Content,
			Profile:  s.Profile,
			Model:    specs[i].build(),
			Manifest: core.ManifestOptions{Combos: allowed},
		}, true)
		if err != nil {
			return Outcome{}, fmt.Errorf("ablation %s: %w", specs[i].name, err)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]Outcome, len(outs))
	for i, o := range outs {
		out[specs[i].name] = o
	}
	return out, nil
}
