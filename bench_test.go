// Package demuxabr_test is the paper's benchmark harness: one benchmark per
// table and figure of "ABR Streaming with Separate Audio and Video Tracks"
// (CoNEXT 2019), plus ablation benches for the §4 best-practice design
// choices. Each benchmark runs the corresponding experiment end-to-end
// (content synthesis → manifest round trip → player model → discrete-event
// session) and reports the figure's headline quantities as custom metrics,
// so `go test -bench=. -benchmem` regenerates the paper's evaluation.
package demuxabr_test

import (
	"fmt"
	"runtime"
	"testing"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/experiments"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/trace"
)

// --- Tables -------------------------------------------------------------

// BenchmarkTable1Ladder regenerates Table 1: the drama show's audio/video
// ladder with its average, peak and declared bitrates.
func BenchmarkTable1Ladder(b *testing.B) {
	var c *media.Content
	for i := 0; i < b.N; i++ {
		c = media.DramaShow()
	}
	b.ReportMetric(float64(len(c.VideoTracks)), "video-tracks")
	b.ReportMetric(float64(len(c.AudioTracks)), "audio-tracks")
	b.ReportMetric(c.VideoTracks[5].DeclaredBitrate.Kbps(), "V6-declared-kbps")
	b.ReportMetric(c.AudioTracks[2].DeclaredBitrate.Kbps(), "A3-declared-kbps")
}

// BenchmarkTable2AllCombinations regenerates Table 2: the 18 combinations
// of manifest H_all sorted by peak bitrate.
func BenchmarkTable2AllCombinations(b *testing.B) {
	c := media.DramaShow()
	var combos []media.Combo
	for i := 0; i < b.N; i++ {
		combos = media.HAll(c)
	}
	b.ReportMetric(float64(len(combos)), "combinations")
	b.ReportMetric(combos[0].PeakBitrate().Kbps(), "min-peak-kbps")  // paper: 253 (V1+A1)
	b.ReportMetric(combos[17].PeakBitrate().Kbps(), "max-peak-kbps") // paper: 4838 (V6+A3)
	b.ReportMetric(combos[17].AvgBitrate().Kbps(), "max-avg-kbps")   // paper: 3112
}

// BenchmarkTable3SubsetCombinations regenerates Table 3: the curated H_sub.
func BenchmarkTable3SubsetCombinations(b *testing.B) {
	c := media.DramaShow()
	var combos []media.Combo
	for i := 0; i < b.N; i++ {
		combos = media.HSub(c)
	}
	b.ReportMetric(float64(len(combos)), "combinations")             // paper: 6
	b.ReportMetric(combos[2].PeakBitrate().Kbps(), "V3A2-peak-kbps") // paper: 840
	b.ReportMetric(combos[2].AvgBitrate().Kbps(), "V3A2-avg-kbps")   // paper: 558
}

// --- Figures ------------------------------------------------------------

// BenchmarkFig2aExoDASHLowAudio regenerates Fig. 2(a): ExoPlayer DASH with
// the B audio ladder at 900 Kbps settles on V3+B2; V3+B3 fits but is
// excluded by the predetermined combinations.
func BenchmarkFig2aExoDASHLowAudio(b *testing.B) {
	var r experiments.Fig2Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig2a()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Outcome.Metrics.AvgVideoBitrate.Kbps(), "avg-video-kbps") // paper: V3 (362)
	b.ReportMetric(r.Outcome.Metrics.AvgAudioBitrate.Kbps(), "avg-audio-kbps") // paper: B2 (~62)
	b.ReportMetric(boolMetric(r.Dominant.String() == "V3+B2"), "selects-V3B2")
	b.ReportMetric(boolMetric(r.BetterFits && !r.BetterPredetermined), "V3B3-feasible-but-excluded")
}

// BenchmarkFig2bExoDASHHighAudio regenerates Fig. 2(b): the C audio ladder
// yields V2+C2 — very low video with high audio — while V3+C1 fits.
func BenchmarkFig2bExoDASHHighAudio(b *testing.B) {
	var r experiments.Fig2Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig2b()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Outcome.Metrics.AvgVideoBitrate.Kbps(), "avg-video-kbps") // paper: V2 (246)
	b.ReportMetric(r.Outcome.Metrics.AvgAudioBitrate.Kbps(), "avg-audio-kbps") // paper: C2 (~376)
	b.ReportMetric(boolMetric(r.Dominant.String() == "V2+C2"), "selects-V2C2")
	b.ReportMetric(boolMetric(r.BetterFits && !r.BetterPredetermined), "V3C1-feasible-but-excluded")
}

// BenchmarkFig3aExoHLSTracks regenerates Fig. 3(a): audio pinned at A3 (the
// first listed rendition) and off-manifest video/audio pairs.
func BenchmarkFig3aExoHLSTracks(b *testing.B) {
	var r experiments.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig3(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(boolMetric(r.FixedAudio == "A3"), "audio-pinned-A3")
	b.ReportMetric(float64(r.AudioTrackChanges), "audio-switches")      // paper: 0
	b.ReportMetric(float64(r.OffManifestChunks), "off-manifest-chunks") // paper: >0
}

// BenchmarkFig3bExoHLSBuffers regenerates Fig. 3(b): the stall count and
// rebuffering total of the pinned-audio session (paper: 5 stalls, 36.9 s).
func BenchmarkFig3bExoHLSBuffers(b *testing.B) {
	var r experiments.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig3(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Outcome.Metrics.StallCount), "stalls")        // paper: 5
	b.ReportMetric(r.Outcome.Metrics.RebufferTime.Seconds(), "rebuffer-s") // paper: 36.9
	b.ReportMetric(r.Outcome.Metrics.MaxImbalance.Seconds(), "max-buffer-imbalance-s")
}

// BenchmarkFig4aShakaFixed regenerates Fig. 4(a): at a constant 1 Mbps no
// interval passes the 16 KB filter, the estimate sticks at the 500 Kbps
// default, and V2+A2 streams throughout.
func BenchmarkFig4aShakaFixed(b *testing.B) {
	var r experiments.Fig4Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig4a()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.EstimateEnd.Kbps(), "estimate-kbps") // paper: 500 throughout
	b.ReportMetric(boolMetric(!r.AnyValidSample), "all-samples-filtered")
	b.ReportMetric(boolMetric(r.Dominant.String() == "V2+A2"), "selects-V2A2")
}

// BenchmarkFig4bShakaVarying regenerates Fig. 4(b): under- then
// over-estimation on the bimodal average-600 Kbps link (paper: V2+A2 then
// V3+A3, ~39 s of rebuffering).
func BenchmarkFig4bShakaVarying(b *testing.B) {
	var r experiments.Fig4Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig4b()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.EstimateEnd.Kbps(), "final-estimate-kbps")            // paper: ~2x the true average
	b.ReportMetric(r.Outcome.Metrics.RebufferTime.Seconds(), "rebuffer-s") // paper: 39
	b.ReportMetric(boolMetric(r.Dominant.String() == "V3+A3"), "selects-V3A3")
}

// BenchmarkFig5aDashjsTracks regenerates Fig. 5(a): selection fluctuation
// across nearby combinations including the undesirable V2+A3.
func BenchmarkFig5aDashjsTracks(b *testing.B) {
	var r experiments.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Combos)), "distinct-combos")
	b.ReportMetric(float64(len(r.UndesirablePairings)), "undesirable-combos") // paper: V2+A3 etc.
	b.ReportMetric(float64(r.Outcome.Metrics.VideoSwitches), "video-switches")
}

// BenchmarkFig5bDashjsBuffers regenerates Fig. 5(b): unbalanced audio and
// video buffers under independent per-type scheduling.
func BenchmarkFig5bDashjsBuffers(b *testing.B) {
	var r experiments.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxImbalance.Seconds(), "max-buffer-imbalance-s")
	b.ReportMetric(r.Outcome.Metrics.MeanImbalance.Seconds(), "mean-buffer-imbalance-s")
}

// BenchmarkShakaFluctuation covers the §3.3 textual example: with the
// estimate wandering between 300 and 700 Kbps, the rate-based rule visits
// several closely spaced H_all combinations (paper: V1+A2, V2+A1, V2+A2,
// V1+A3, V2+A3 at 318/395/460/510/652 Kbps).
func BenchmarkShakaFluctuation(b *testing.B) {
	c := media.DramaShow()
	combos := media.HAll(c)
	var distinct int
	for i := 0; i < b.N; i++ {
		seen := map[string]bool{}
		for estKbps := 300; estKbps <= 700; estKbps += 25 {
			budget := media.Kbps(float64(estKbps) * shakaDowngradeTarget)
			pick := combos[0]
			for _, cb := range combos {
				if cb.PeakBitrate() <= budget {
					pick = cb
				}
			}
			seen[pick.String()] = true
		}
		distinct = len(seen)
	}
	b.ReportMetric(float64(distinct), "distinct-combos") // paper: 5
}

// shakaDowngradeTarget mirrors shaka.DefaultDowngradeTarget for the
// fluctuation sweep.
const shakaDowngradeTarget = 0.95

// --- Motivation (§1) -----------------------------------------------------

// BenchmarkCDNMotivation regenerates the §1 storage and cache-hit
// arguments: M+N vs M×N origin storage and the shared-video cache
// advantage of demuxed packaging.
func BenchmarkCDNMotivation(b *testing.B) {
	content := media.DramaShow()
	var ratio float64
	var dHit, mHit float64
	for i := 0; i < b.N; i++ {
		demuxed := cdnsim.OriginStorage(content, cdnsim.Demuxed, nil)
		muxed := cdnsim.OriginStorage(content, cdnsim.Muxed, media.HAll(content))
		ratio = float64(muxed) / float64(demuxed)
		sessions := []cdnsim.Session{
			{Combo: media.Combo{Video: content.VideoTracks[0], Audio: content.AudioTracks[1]}},
			{Combo: media.Combo{Video: content.VideoTracks[0], Audio: content.AudioTracks[0]}},
		}
		d := cdnsim.Workload(cdnsim.NewCache(1<<30), cdnsim.Demuxed, content, sessions)
		m := cdnsim.Workload(cdnsim.NewCache(1<<30), cdnsim.Muxed, content, sessions)
		dHit, mHit = d.HitRatio(), m.HitRatio()
	}
	b.ReportMetric(ratio, "muxed-over-demuxed-storage")
	b.ReportMetric(dHit, "demuxed-hit-ratio")
	b.ReportMetric(mHit, "muxed-hit-ratio")
}

// BenchmarkCDNCacheSweep extends the §1 cache argument across cache sizes
// with a staggered Zipf audience: demuxed packaging reaches a given byte
// hit ratio with a fraction of the cache muxed packaging needs.
func BenchmarkCDNCacheSweep(b *testing.B) {
	content := media.DramaShow()
	pop := cdnsim.Population{Viewers: 60, VideoZipf: 1.2, AudioSpread: 3, Seed: 11}
	var points []cdnsim.CacheSweepPoint
	for i := 0; i < b.N; i++ {
		points = cdnsim.CacheSweep(content, pop, []int64{32 << 20, 128 << 20, 512 << 20}, 0)
	}
	for _, p := range points {
		b.ReportMetric(p.Stats.ByteHitRatio(), fmt.Sprintf("%s-%dMB-byte-hit", p.Mode, p.CacheBytes>>20))
	}
}

// --- Best-practice comparison and ablations (§4) --------------------------

// BenchmarkBestPracticeVsPlayers runs all five player models under each
// paper scenario and reports the best-practice QoE advantage.
func BenchmarkBestPracticeVsPlayers(b *testing.B) {
	for _, s := range experiments.Scenarios() {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			var outcomes []experiments.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				outcomes, err = experiments.Compare(s, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, o := range outcomes {
				b.ReportMetric(o.Metrics.Score, o.Model+"-qoe")
			}
		})
	}
}

// BenchmarkAblations quantifies each §4 design choice by switching it off.
func BenchmarkAblations(b *testing.B) {
	scenario := experiments.Scenarios()[1] // varying-avg-600k: the hard one
	b.Run(scenario.Name, func(b *testing.B) {
		var out map[string]experiments.Outcome
		var err error
		for i := 0; i < b.N; i++ {
			out, err = experiments.Ablate(scenario, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		for name, o := range out {
			b.ReportMetric(o.Metrics.Score, name+"-qoe")
			b.ReportMetric(o.Metrics.RebufferTime.Seconds(), name+"-rebuffer-s")
		}
	})
	b.Run("imbalance:fixed-700k", func(b *testing.B) {
		s := experiments.Scenarios()[4]
		var out map[string]experiments.Outcome
		var err error
		for i := 0; i < b.N; i++ {
			out, err = experiments.Ablate(s, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(out["full"].Metrics.MaxImbalance.Seconds(), "synced-imbalance-s")
		b.ReportMetric(out["independent-scheduling"].Metrics.MaxImbalance.Seconds(), "independent-imbalance-s")
	})
}

// BenchmarkFig3Repaired quantifies the §4.1 media-playlist repair of the
// ExoPlayer HLS degradation under the Fig. 3 conditions.
func BenchmarkFig3Repaired(b *testing.B) {
	var r experiments.RepairResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig3Repaired()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Broken.Metrics.RebufferTime.Seconds(), "broken-rebuffer-s")
	b.ReportMetric(r.Repaired.Metrics.RebufferTime.Seconds(), "repaired-rebuffer-s")
	b.ReportMetric(float64(r.Repaired.Metrics.OffManifest), "repaired-off-manifest")
	b.ReportMetric(r.RecoveredBitrateErr, "bitrate-recovery-err")
}

// BenchmarkSplitPath quantifies the §4.1 different-servers scenario:
// aggregate vs per-path bandwidth budgeting.
func BenchmarkSplitPath(b *testing.B) {
	var r experiments.SplitPathResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.SplitPath()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Shared.Metrics.AvgVideoBitrate.Kbps(), "aggregate-video-kbps")
	b.ReportMetric(r.PathAware.Metrics.AvgVideoBitrate.Kbps(), "pathaware-video-kbps")
	b.ReportMetric(r.PathAware.Metrics.Score-r.Shared.Metrics.Score, "pathaware-qoe-gain")
}

// BenchmarkSafetyFactorFrontier reports the quality/rebuffer trade-off of
// the best-practice player's safety factor.
func BenchmarkSafetyFactorFrontier(b *testing.B) {
	var points []experiments.ParetoPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.SafetyFactorSweep([]float64{0.6, 0.8, 0.95}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Outcome.Metrics.AvgVideoBitrate.Kbps(), fmt.Sprintf("sf%.2f-video-kbps", p.SafetyFactor))
		b.ReportMetric(p.Outcome.Metrics.RebufferTime.Seconds(), fmt.Sprintf("sf%.2f-rebuffer-s", p.SafetyFactor))
	}
}

// BenchmarkSeedSweep reports QoE distributions across random traces —
// the statistical view of the head-to-head comparison.
func BenchmarkSeedSweep(b *testing.B) {
	var summaries []experiments.SeedSummary
	var err error
	for i := 0; i < b.N; i++ {
		summaries, err = experiments.SeedSweep(5, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range summaries {
		b.ReportMetric(s.QoE.Median, s.Model+"-qoe-median")
	}
}

// BenchmarkStartupDelay reports time to first frame per player at 900 Kbps.
func BenchmarkStartupDelay(b *testing.B) {
	var points []experiments.StartupPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.StartupDelays(900, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.StartupDelay.Seconds(), p.Model+"-startup-s")
	}
}

// BenchmarkLanguageSwitch quantifies the §1 multi-language motivation: a
// mid-session language change discards only the audio buffer with demuxed
// packaging, but the whole buffer with muxed packaging.
func BenchmarkLanguageSwitch(b *testing.B) {
	var r experiments.LanguageSwitchResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.LanguageSwitch()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.DemuxedDiscarded)/(1<<20), "demuxed-discarded-MB")
	b.ReportMetric(float64(r.MuxedDiscarded)/(1<<20), "muxed-discarded-MB")
}

// BenchmarkVBRAwareness contrasts declared-average budgeting with actual
// per-chunk-byte budgeting (§4.1 byte ranges) on the spiky action-movie
// content at a tight rate.
func BenchmarkVBRAwareness(b *testing.B) {
	content := media.ActionMovie()
	var vbr, avg *core.Session
	for i := 0; i < b.N; i++ {
		var err error
		vbr, err = core.Play(core.Spec{
			Content: content,
			Profile: trace.Fixed(media.Kbps(1100)),
			Player:  core.VBRJoint,
		})
		if err != nil {
			b.Fatal(err)
		}
		avg, err = core.Play(core.Spec{
			Content: content,
			Profile: trace.Fixed(media.Kbps(1100)),
			Player:  core.BestPractice,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(vbr.Metrics.AvgVideoBitrate.Kbps(), "vbr-video-kbps")
	b.ReportMetric(avg.Metrics.AvgVideoBitrate.Kbps(), "declared-video-kbps")
	b.ReportMetric(vbr.Metrics.RebufferTime.Seconds(), "vbr-rebuffer-s")
	b.ReportMetric(avg.Metrics.RebufferTime.Seconds(), "declared-rebuffer-s")
}

// BenchmarkCrossTraffic measures how each player responds to a competing
// flow seizing most of the bottleneck mid-session.
func BenchmarkCrossTraffic(b *testing.B) {
	var results map[string]experiments.CrossTrafficResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = experiments.CrossTraffic()
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, r := range results {
		b.ReportMetric(r.BeforeKbps-r.DuringKbps, name+"-shed-kbps")
		b.ReportMetric(r.Outcome.Metrics.RebufferTime.Seconds(), name+"-rebuffer-s")
	}
}

// BenchmarkMuxedBaseline contrasts muxed and demuxed packaging with the
// same player: the balance problem disappears, the storage cost appears.
func BenchmarkMuxedBaseline(b *testing.B) {
	var r experiments.MuxedBaselineResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.MuxedBaseline()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Demuxed.Metrics.MaxImbalance.Seconds(), "demuxed-imbalance-s")
	b.ReportMetric(r.Muxed.Metrics.MaxImbalance.Seconds(), "muxed-imbalance-s")
	b.ReportMetric(r.StorageRatio, "muxed-storage-ratio")
}

// BenchmarkChunkDuration quantifies the chunking trade-off under a 100 ms
// request RTT: per-request overhead vs startup delay and sync granularity.
func BenchmarkChunkDuration(b *testing.B) {
	var points []experiments.ChunkDurationPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.ChunkDurationSweep([]float64{2, 5, 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Outcome.Metrics.StartupDelay.Seconds(), fmt.Sprintf("%gs-startup-s", p.ChunkSeconds))
		b.ReportMetric(p.Outcome.Metrics.Score, fmt.Sprintf("%gs-qoe", p.ChunkSeconds))
	}
}

// BenchmarkContentCuration quantifies §2.1's content-aware curation: the
// same player and link, with generic vs content-appropriate combination
// lists, scored with content-appropriate QoE weights.
func BenchmarkContentCuration(b *testing.B) {
	var results []experiments.CurationResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = experiments.ContentCuration()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(r.Curated.Metrics.Score-r.Generic.Metrics.Score, r.Content+"-curation-qoe-gain")
	}
}

// BenchmarkSyncGranularity quantifies §4.2's synchronization granularity:
// buffer imbalance and QoE for increasing audio/video skew bounds.
func BenchmarkSyncGranularity(b *testing.B) {
	var points []experiments.SyncGranularityPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.SyncGranularity([]int{0, 1, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Outcome.Metrics.MaxImbalance.Seconds(), fmt.Sprintf("window%d-imbalance-s", p.Window))
		b.ReportMetric(p.Outcome.Metrics.Score, fmt.Sprintf("window%d-qoe", p.Window))
	}
}

// BenchmarkBandwidthSweep runs the crossover analysis: every player model
// at each bandwidth of the operating range, reporting where the
// best-practice design's QoE lead is largest.
func BenchmarkBandwidthSweep(b *testing.B) {
	var points []experiments.SweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.BandwidthSweep([]float64{600, 1300, 3000}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Outcome.Metrics.Score, fmt.Sprintf("%s@%.0fK-qoe", p.Outcome.Model, p.Kbps))
	}
}

// BenchmarkFleet measures the session-fleet fan-out itself: the same
// bandwidth sweep (7 bandwidths × 8 models = 56 sessions) run serially
// and across GOMAXPROCS runpool workers. The output is byte-identical
// either way (TestParallelEquivalence* in internal/experiments); this
// benchmark tracks the wall-clock speedup.
func BenchmarkFleet(b *testing.B) {
	kbps := experiments.DefaultSweepKbps()
	for _, bc := range []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.BandwidthSweep(kbps, bc.parallel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetScale measures the multi-session co-simulation: fleets of
// mixed joint players on a shared 24 Mbps uplink hitting one edge cache,
// at increasing scale. Reported metrics track the tentpole claims: QoE
// median, Jain fairness, and the demuxed byte hit ratio at each N.
func BenchmarkFleetScale(b *testing.B) {
	ns := []int{2, 8, 16}
	var points []experiments.FleetScalePoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.FleetScale(ns, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Mode != cdnsim.Demuxed {
			continue
		}
		b.ReportMetric(p.Fleet.Score.Median, fmt.Sprintf("N%d-qoe-median", p.N))
		b.ReportMetric(p.Fleet.JainVideoKbps, fmt.Sprintf("N%d-jain", p.N))
		b.ReportMetric(p.Cache.ByteHitRatio(), fmt.Sprintf("N%d-byte-hit", p.N))
	}
}

// BenchmarkFleetStream measures the sharded streaming path that takes the
// co-simulation to N=100k: 16-session contention cells, one engine per
// cell, sketch aggregation (memory O(shards + sketch), no per-session
// retention). N here is kept small enough for the benchmem smoke; the
// fleet-1e3/1e4/1e5 wall-clock rows live in BENCH_*.json via benchjson.
func BenchmarkFleetStream(b *testing.B) {
	const n = 96
	var res *fleet.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.FleetAtScale(n, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cells), "cells")
	b.ReportMetric(res.Fleet.Score.Median, "qoe-median")
	b.ReportMetric(res.Fleet.JainVideoKbps, "jain")
	b.ReportMetric(float64(len(res.Sampled)), "sampled-rows")
}

// BenchmarkFleetTransport prices the transport layer's connection
// bookkeeping on the same streaming fleet as BenchmarkFleetStream: every
// session runs its requests through H1 connections (the most stateful
// protocol — two conns per session, keep-alive clocks, resume pricing).
// Compare against BenchmarkFleetStream for the overhead; the
// transport-h1/h2/h3 N=1e3 wall-clock rows live in BENCH_*.json.
func BenchmarkFleetTransport(b *testing.B) {
	const n = 96
	var res *fleet.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.FleetAtScaleTransport(n, 0, netsim.H1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cells), "cells")
	b.ReportMetric(res.Fleet.Score.Median, "qoe-median")
}

// BenchmarkLiveSession prices the live machinery on one latency-target
// session: availability gating, the 500 ms controller cadence, and the
// LoL+ low-latency rule, on the varying-600 link. Compare against the
// session-recorder-off row in BENCH_*.json for the live overhead; the
// live-1e3 fleet wall-clock row lives there too via benchjson.
func BenchmarkLiveSession(b *testing.B) {
	var sess *core.Session
	for i := 0; i < b.N; i++ {
		var err error
		sess, err = core.Play(core.Spec{
			Profile: trace.Fig3VaryingAvg600(),
			Player:  core.LLLoLP,
			Live:    experiments.LiveConfig(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sess.Result.Live.MeanLatency.Seconds(), "mean-latency-s")
	b.ReportMetric(float64(sess.Result.Live.RateChanges), "rate-changes")
	b.ReportMetric(float64(sess.Metrics.StallCount), "stalls")
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
