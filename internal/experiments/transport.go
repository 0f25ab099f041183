package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/runpool"
	"demuxabr/internal/trace"
)

// TransportSeed keys every transport experiment's per-connection loss
// draws, so the tables regenerate byte-identically.
const TransportSeed = 4099

// TransportRTT is the access round trip of the transport experiments: a
// mobile last mile where handshake round trips are expensive enough to
// see (200 ms), rather than the paper's negligible-RTT testbed.
const TransportRTT = 200 * time.Millisecond

// TransportIdleTimeout is the modelled keep-alive window: how long a
// connection may sit idle before the next request pays a fresh setup
// (server keep-alive plus mobile radio/NAT idle teardown, which on
// cellular paths is well under a second). It sits between the
// per-connection request gaps of the packaging modes under study: a
// demuxed HTTP/1.1 session splits its requests across two connections
// whose individual gaps cross this threshold far more often than the one
// connection that sees every request.
const TransportIdleTimeout = 700 * time.Millisecond

// TransportLossRate is the per-request probability of a loss event (a
// retransmission stall) in the transport experiments.
const TransportLossRate = 0.02

// TransportMaxBuffer caps the player buffer in the transport comparison:
// a low-latency player that cannot ride out transport waits on a deep
// buffer (the latency-target operating point of the DASH.js study cited
// in PAPERS.md). Deep-buffer players absorb handshake waits almost
// entirely; short-buffer players convert them to dead air.
const TransportMaxBuffer = 8 * time.Second

// TransportTraceSeeds is how many random-walk traces the comparison
// averages over. One marginal trace makes the dead-air numbers hostage
// to phase coincidences between its dips and the buffer cycle; a seeded
// handful averages that out while staying byte-reproducible.
const TransportTraceSeeds = 8

// transportWalk is trace seed s of the comparison: a random walk between
// 250 and 1000 Kbps, re-drawn every 5 s — mostly above the pinned
// combination's rate (gaps open, keep-alives lapse) with real dips below
// it (the buffer bottoms out, so transport waits can surface as stalls).
func transportWalk(s int) trace.Profile {
	return trace.RandomWalk(int64(s+1), media.Kbps(250), media.Kbps(1000), 5*time.Second, 5*time.Minute)
}

// transportCombo pins the comparison's selection: V2+A1 (374 Kbps), the
// rung the walk straddles. Pinning removes ABR feedback from the
// measurement — adaptive runs answer "how does the ladder react", the
// other figure families' question; here the question is what the
// transport itself costs each packaging mode, so every cell downloads
// the same bytes on the same schedule impulse.
func transportCombo(c *media.Content) media.Combo {
	return media.Combo{Video: c.VideoTracks[1], Audio: c.AudioTracks[0]}
}

// pinnedJoint always selects the same combination (joint scheduling).
type pinnedJoint struct {
	abr.NopObserver
	combo media.Combo
}

func (p *pinnedJoint) Name() string                      { return "pinned-joint" }
func (p *pinnedJoint) SelectCombo(abr.State) media.Combo { return p.combo }

// pinnedPerType always selects the same tracks, one decision per type
// (independent scheduling — each type free-runs against its own buffer).
type pinnedPerType struct {
	abr.NopObserver
	combo media.Combo
}

func (p *pinnedPerType) Name() string { return "pinned-independent" }
func (p *pinnedPerType) SelectTrack(typ media.Type, _ abr.State) *media.Track {
	if typ == media.Video {
		return p.combo.Video
	}
	return p.combo.Audio
}

// transportConfig is the per-protocol preset dressed with the experiment
// constants. Trace seed s gets its own loss-draw seed so the seeds are
// independent replicas, still pure functions of (s, protocol).
func transportConfig(p netsim.Protocol, s int) netsim.TransportConfig {
	tc := netsim.DefaultTransport(p)
	tc.IdleTimeout = TransportIdleTimeout
	tc.LossRate = TransportLossRate
	tc.Seed = TransportSeed + int64(s)*7919
	return tc
}

// TransportProtocols is the comparison's protocol axis, in generation
// order.
func TransportProtocols() []netsim.Protocol {
	return []netsim.Protocol{netsim.H1, netsim.H2, netsim.H3}
}

// transportScenario is one packaging/scheduling row of the comparison:
// the packaging and the pinned model that schedules it.
type transportScenario struct {
	name  string
	muxed bool
	build func() abr.Algorithm
}

// transportScenarios are the comparison's rows, in print order: the muxed
// baseline, the best-practice demuxed player (chunk-synced scheduling),
// and its free-running ablation, all pinned to transportCombo.
func transportScenarios(c *media.Content) []transportScenario {
	combo := transportCombo(c)
	joint := func() abr.Algorithm { return &pinnedJoint{combo: combo} }
	return []transportScenario{
		{"muxed", true, joint},
		{"demux-synced", false, joint},
		{"demux-independent", false, func() abr.Algorithm { return &pinnedPerType{combo: combo} }},
	}
}

// TransportCell is one (scenario, protocol) cell of the comparison,
// averaged over the TransportTraceSeeds traces.
type TransportCell struct {
	Scenario string
	Protocol netsim.Protocol
	Seeds    int

	// Startup and Rebuffer are per-trace means; ConnStall is the mean
	// time the cell's requests spent stalled inside the transport —
	// waiting out handshakes or head-of-line freezes — instead of moving
	// bytes. Dead air is what the viewer sees; conn stall is where the
	// transport spent the session's patience.
	Startup   time.Duration
	Rebuffer  time.Duration
	ConnStall time.Duration

	// Score is the mean QoE score.
	Score float64

	// Stats sums the transport counters across the traces.
	Stats player.TransportStats
}

// DeadAir is the viewer-facing half of the cell: mean startup delay plus
// mean rebuffering — every second the screen showed nothing.
func (c TransportCell) DeadAir() time.Duration { return c.Startup + c.Rebuffer }

// StalledTime is dead air plus connection-stall time: every second a
// viewer or a request spent waiting on something other than media bytes.
func (c TransportCell) StalledTime() time.Duration { return c.DeadAir() + c.ConnStall }

// TransportComparison crosses the packaging/scheduling scenarios with the
// three HTTP generations. This is the paper's demuxed-vs-muxed question
// re-asked one layer down: demuxed packaging doubles the request count
// and (under HTTP/1.1) splits it over two connections, so the
// transport's fixed costs — handshakes after keep-alive lapses,
// head-of-line freezes under loss — hit the packagings differently per
// protocol.
//
// parallel is the worker count (0 = GOMAXPROCS, 1 = serial). Each cell
// runs its traces serially on private engines; loss draws are pure
// functions of (seed, connection label, request ordinal), so cells are
// byte-identical at any worker count and come back in the fixed order:
// scenarios outer, protocols inner.
func TransportComparison(parallel int) ([]TransportCell, error) {
	content := media.DramaShow()
	scens := transportScenarios(content)
	protos := TransportProtocols()
	return runpool.Map(parallel, len(scens)*len(protos), func(i int) (TransportCell, error) {
		si, pi := i/len(protos), i%len(protos)
		cell := TransportCell{Scenario: scens[si].name, Protocol: protos[pi], Seeds: TransportTraceSeeds}
		for s := 0; s < TransportTraceSeeds; s++ {
			tc := transportConfig(protos[pi], s)
			out, err := play(core.Spec{
				Content:   content,
				Profile:   transportWalk(s),
				Model:     scens[si].build(),
				Muxed:     scens[si].muxed,
				MaxBuffer: TransportMaxBuffer,
				RTT:       TransportRTT,
				Transport: &tc,
			}, true)
			if err != nil {
				return TransportCell{}, fmt.Errorf("transport %s/%s seed %d: %w", scens[si].name, protos[pi], s, err)
			}
			m := out.Metrics
			cell.Startup += m.StartupDelay
			cell.Rebuffer += m.RebufferTime
			cell.Score += m.Score
			if t := out.Result.Transport; t != nil {
				cell.ConnStall += t.HandshakeWait + t.HoLWait
				cell.Stats.Handshakes += t.Handshakes
				cell.Stats.Resumes += t.Resumes
				cell.Stats.FailedHandshakes += t.FailedHandshakes
				cell.Stats.Migrations += t.Migrations
				cell.Stats.HoLStalls += t.HoLStalls
				cell.Stats.HandshakeWait += t.HandshakeWait
				cell.Stats.HoLWait += t.HoLWait
			}
		}
		n := time.Duration(TransportTraceSeeds)
		cell.Startup /= n
		cell.Rebuffer /= n
		cell.ConnStall /= n
		cell.Score /= float64(TransportTraceSeeds)
		return cell, nil
	})
}

// TransportDelta is the demuxed-over-muxed cost under one protocol: the
// free-running demuxed player's mean dead air and connection-stall time
// over the muxed baseline's.
type TransportDelta struct {
	DeadAir   time.Duration
	ConnStall time.Duration
}

// Total is the delta in StalledTime.
func (d TransportDelta) Total() time.Duration { return d.DeadAir + d.ConnStall }

// TransportDeltas reduces the comparison to the paper-style question: what
// does demuxed packaging cost over the muxed baseline, per protocol? The
// demuxed representative is the free-running (independent-scheduling)
// player — the common deployed behavior §3 measures. The stall deltas
// widen under HTTP/1.1 (two connections, each idling out and
// re-handshaking on its own clock) and narrow under HTTP/3 (one
// multiplexed connection, 0-RTT resumption, per-stream loss recovery),
// with HTTP/2 between (one shared connection, but TCP setup pricing and
// whole-connection head-of-line freezes).
func TransportDeltas(cells []TransportCell) map[netsim.Protocol]TransportDelta {
	out := map[netsim.Protocol]TransportDelta{}
	for _, d := range cells {
		for _, m := range cells {
			if d.Scenario == "demux-independent" && m.Scenario == "muxed" && d.Protocol == m.Protocol {
				out[d.Protocol] = TransportDelta{DeadAir: d.DeadAir() - m.DeadAir(), ConnStall: d.ConnStall - m.ConnStall}
			}
		}
	}
	return out
}

// PrintTransport renders the comparison: per-cell dead air, QoE, and the
// transport-level accounting, then the demuxed-over-muxed stall deltas.
func PrintTransport(w io.Writer, cells []TransportCell) {
	fmt.Fprintf(w, "Transport comparison (pinned V2+A1, %d walk traces 250-1000 Kbps, RTT %v, keep-alive %v, loss %.0f%%, %v buffer cap):\n",
		TransportTraceSeeds, TransportRTT, TransportIdleTimeout, TransportLossRate*100, TransportMaxBuffer)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tproto\tstartup\trebuf\tdead air\tconn stall\tstalled\tQoE\thandshakes\tresumes\thol stalls")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%.2fs\t%.2fs\t%.2fs\t%.1fs\t%.1fs\t%.2f\t%d\t%d\t%d\n",
			c.Scenario, c.Protocol,
			c.Startup.Seconds(), c.Rebuffer.Seconds(), c.DeadAir().Seconds(),
			c.ConnStall.Seconds(), c.StalledTime().Seconds(), c.Score,
			c.Stats.Handshakes, c.Stats.Resumes, c.Stats.HoLStalls)
	}
	tw.Flush()
	fmt.Fprintln(w, "Demuxed-over-muxed stall deltas (independent scheduling, mean per session):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "proto\tdead air\tconn stall\ttotal")
	deltas := TransportDeltas(cells)
	for _, p := range TransportProtocols() {
		d := deltas[p]
		fmt.Fprintf(tw, "%s\t%+.2fs\t%+.2fs\t%+.2fs\n",
			p, d.DeadAir.Seconds(), d.ConnStall.Seconds(), d.Total().Seconds())
	}
	tw.Flush()
	fmt.Fprintln(w, "The demuxed-over-muxed stall delta widens under h1 (two serial connections,")
	fmt.Fprintln(w, "each re-handshaking after its own keep-alive lapses) and narrows under h3")
	fmt.Fprintln(w, "(one multiplexed connection, 0-RTT resumption, per-stream loss recovery).")
}

// TransportResiliencePoint is one protocol's outcome under the
// connection-fault mix.
type TransportResiliencePoint struct {
	Protocol netsim.Protocol
	Outcome  Outcome
}

// TransportResilience runs the best-practice player under a fault plan
// that mixes the classic request faults with the transport kinds
// (handshake failures, path migrations), once per protocol, with the given
// worker count. The faults are identical across protocols — the same
// draws, the same chunks — so the spread is purely the protocols' recovery
// pricing: TCP-family connections die on migration and pay resume round
// trips on every reconnect, QUIC revalidates in one round trip and resumes
// for free.
func TransportResilience(parallel int) ([]TransportResiliencePoint, error) {
	content := media.DramaShow()
	m, err := core.ParseManifests(content, core.ManifestOptions{}, core.BestPractice)
	if err != nil {
		return nil, err
	}
	protos := TransportProtocols()
	pol := faults.DefaultPolicy()
	return runpool.Map(parallel, len(protos), func(i int) (TransportResiliencePoint, error) {
		tc := transportConfig(protos[i], 0)
		spec, err := kindSpec(m, core.BestPractice, content, trace.Fig3VaryingAvg600())
		if err != nil {
			return TransportResiliencePoint{}, err
		}
		spec.Faults = &faults.Plan{
			Seed:  ResilienceSeed,
			Rate:  0.05,
			Kinds: append(faults.AllKinds(), faults.TransportKinds()...),
		}
		spec.Robustness = &pol
		spec.Transport = &tc
		spec.RTT = TransportRTT
		out, err := play(spec, false)
		if err != nil {
			return TransportResiliencePoint{}, fmt.Errorf("transport resilience %s: %w", protos[i], err)
		}
		return TransportResiliencePoint{Protocol: protos[i], Outcome: out}, nil
	})
}

// PrintTransportResilience renders the per-protocol recovery table.
func PrintTransportResilience(w io.Writer, points []TransportResiliencePoint) {
	fmt.Fprintln(w, "Transport resilience (5% faults incl. handshake failures and migrations):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "proto\tended\tQoE\trebuf\tfaults\tretries\tfailed hs\tmigrations\tresumes\ths wait")
	for _, p := range points {
		t := p.Outcome.Result.Transport
		if t == nil {
			t = &player.TransportStats{}
		}
		fmt.Fprintf(tw, "%s\t%v\t%.2f\t%.1fs\t%d\t%d\t%d\t%d\t%d\t%.1fs\n",
			p.Protocol, p.Outcome.Result.Ended,
			p.Outcome.Metrics.Score,
			p.Outcome.Metrics.RebufferTime.Seconds(),
			len(p.Outcome.Result.Faults), p.Outcome.Result.Retries,
			t.FailedHandshakes, t.Migrations, t.Resumes,
			t.HandshakeWait.Seconds())
	}
	tw.Flush()
}

// FleetAtScaleTransport is FleetAtScale with every session's requests
// routed through per-session transport connections of the given protocol
// (loss draws reseeded per session) on TransportRTT access links.
func FleetAtScaleTransport(n, shards int, proto netsim.Protocol) (*fleet.Result, error) {
	cfg := atScaleConfig(n, shards)
	tc := transportConfig(proto, 0)
	cfg.Transport = &tc
	cfg.AccessRTT = TransportRTT
	return fleet.Run(cfg)
}
