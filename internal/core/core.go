// Package core is the library's high-level API: build a demuxed content
// asset, pick a player model and a network profile, run a streaming
// session, and read back the timeline and QoE metrics.
//
// It wires the full stack the way a deployment would: the chosen protocol's
// manifest is generated and re-parsed, and the player model is constructed
// from the parsed manifest — never from ground truth the real player could
// not see.
package core

import (
	"bytes"
	"fmt"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/dashjs"
	"demuxabr/internal/abr/exoplayer"
	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/abr/lowlat"
	"demuxabr/internal/abr/shaka"
	"demuxabr/internal/faults"
	"demuxabr/internal/manifest/dash"
	"demuxabr/internal/manifest/hls"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// PlayerKind names one of the library's player models.
type PlayerKind string

// The available player models.
const (
	// ExoPlayerDASH is ExoPlayer v2.10 with a DASH manifest (§3.2).
	ExoPlayerDASH PlayerKind = "exoplayer-dash"
	// ExoPlayerHLS is ExoPlayer v2.10 with an HLS master playlist (§3.2).
	ExoPlayerHLS PlayerKind = "exoplayer-hls"
	// Shaka is Shaka Player v2.5 (§3.3); DASH and HLS behave identically
	// when the HLS manifest lists all combinations.
	Shaka PlayerKind = "shaka"
	// DashJS is the dash.js v2.9 reference player (§3.4).
	DashJS PlayerKind = "dashjs"
	// BestPractice is the paper's §4 joint audio/video adaptation design.
	BestPractice PlayerKind = "bestpractice"
	// BestPracticeIndependent ablates best practice 4 (chunk-synced
	// scheduling).
	BestPracticeIndependent PlayerKind = "bestpractice-independent"
	// BestPracticeAbandon adds in-flight chunk abandonment to the
	// best-practice player.
	BestPracticeAbandon PlayerKind = "bestpractice-abandon"
	// BolaJoint is the §5 future-work design: BOLA's utility objective
	// over the allowed audio/video combinations.
	BolaJoint PlayerKind = "bola-joint"
	// MPCJoint is a model-predictive joint adapter over the allowed
	// combinations (Yin et al. style lookahead).
	MPCJoint PlayerKind = "mpc-joint"
	// VBRJoint budgets actual per-chunk bytes (recovered from the media
	// playlists' byte ranges, §4.1) instead of declared averages.
	VBRJoint PlayerKind = "bestpractice-vbr"
	// DynamicJoint is dash.js's DYNAMIC strategy applied jointly — the
	// controlled counterpart of DashJS that isolates §3.4's independence.
	DynamicJoint PlayerKind = "dynamic-joint"
	// LLDefault is dash.js's plain throughput rule in a low-latency
	// session: no latency feedback anywhere in the decision.
	LLDefault PlayerKind = "ll-default"
	// LLL2A is the Learn2Adapt-LowLatency rule (virtual latency-violation
	// queue shrinking the bitrate budget).
	LLL2A PlayerKind = "ll-l2a"
	// LLLoLP is the LoL+ rule (low-percentile estimate, latency-gated
	// up-switch hysteresis).
	LLLoLP PlayerKind = "ll-lolp"
)

// PlayerKinds lists every selectable model.
func PlayerKinds() []PlayerKind {
	return []PlayerKind{ExoPlayerDASH, ExoPlayerHLS, Shaka, DashJS, BestPractice, BestPracticeIndependent, BestPracticeAbandon, BolaJoint, MPCJoint, VBRJoint, DynamicJoint, LLDefault, LLL2A, LLLoLP}
}

// ParsePlayerKind validates a player name.
func ParsePlayerKind(s string) (PlayerKind, error) {
	for _, k := range PlayerKinds() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("core: unknown player %q (have %v)", s, PlayerKinds())
}

// ManifestOptions controls what the server declares.
type ManifestOptions struct {
	// Combos is the HLS variant list (default: the curated H_sub pairing).
	Combos []media.Combo
	// AudioOrder is the HLS rendition order (default: ladder order,
	// lowest first). The first entry is what ExoPlayer-HLS pins.
	AudioOrder []*media.Track
}

// BuildModel constructs a player model for the content, routing the
// manifest information through the real encoders and parsers. It returns
// the model and the combination list the server declared (nil for pure
// DASH models, which get no combination restriction — the §2.3 gap). Only
// the manifest the kind reads is generated and parsed.
func BuildModel(kind PlayerKind, c *media.Content, mo ManifestOptions) (abr.Algorithm, []media.Combo, error) {
	var m Manifests
	if err := m.parse(c, mo, kind); err != nil {
		return nil, nil, err
	}
	return m.Model(kind)
}

// Manifests is what a client reconstructs from the server's manifests:
// the MPD's ladders, the master playlist's variants and rendition order,
// and the single-file media playlists' per-chunk byte sizes. Parse it once
// and build any number of models from it; Model never mutates it (the ABR
// constructors copy the slices they sort), so concurrent sessions may
// share one.
type Manifests struct {
	// Video and Audio are the ladders parsed from the MPD.
	Video, Audio media.Ladder
	// Combos and AudioOrder are the variant list and the audio rendition
	// order parsed from the master playlist.
	Combos     []media.Combo
	AudioOrder []*media.Track

	sizer  jointabr.ChunkSizer
	parsed manifestSet
}

// manifestSet names which of a content's manifests a model reads.
type manifestSet uint8

const (
	readsMPD manifestSet = 1 << iota
	readsMaster
	readsMediaPlaylists
)

// manifestsRead reports which manifests a kind's model is built from.
func manifestsRead(kind PlayerKind) (manifestSet, error) {
	switch kind {
	case ExoPlayerDASH, DashJS:
		return readsMPD, nil
	case VBRJoint:
		return readsMaster | readsMediaPlaylists, nil
	case ExoPlayerHLS, Shaka, BestPractice, BestPracticeIndependent, BestPracticeAbandon, BolaJoint, MPCJoint, DynamicJoint, LLDefault, LLL2A, LLLoLP:
		return readsMaster, nil
	}
	return 0, fmt.Errorf("core: unknown player kind %q", kind)
}

// ParseManifests generates the content's manifests and parses back every
// one that the given kinds read, so each of those kinds can then be built
// with Model. mo.Combos defaults to the curated H_sub pairing.
func ParseManifests(c *media.Content, mo ManifestOptions, kinds ...PlayerKind) (*Manifests, error) {
	m := &Manifests{}
	if err := m.parse(c, mo, kinds...); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Manifests) parse(c *media.Content, mo ManifestOptions, kinds ...PlayerKind) error {
	var need manifestSet
	for _, k := range kinds {
		r, err := manifestsRead(k)
		if err != nil {
			return err
		}
		need |= r
	}
	var err error
	if need&readsMPD != 0 {
		if m.Video, m.Audio, err = roundTripMPD(c); err != nil {
			return err
		}
	}
	if need&readsMaster != 0 {
		if mo.Combos == nil {
			mo.Combos = media.HSub(c)
		}
		if m.Combos, m.AudioOrder, err = roundTripMaster(c, mo.Combos, mo.AudioOrder); err != nil {
			return err
		}
	}
	if need&readsMediaPlaylists != 0 {
		if m.sizer, err = chunkSizerFromPlaylists(c); err != nil {
			return err
		}
	}
	m.parsed = need
	return nil
}

// Model builds a fresh model of the given kind from the parsed manifests,
// with the combination list the server declared (nil for pure DASH
// models). It fails if the kind reads a manifest that was not parsed.
func (m *Manifests) Model(kind PlayerKind) (abr.Algorithm, []media.Combo, error) {
	need, err := manifestsRead(kind)
	if err != nil {
		return nil, nil, err
	}
	if need&^m.parsed != 0 {
		return nil, nil, fmt.Errorf("core: %s reads a manifest that was not parsed", kind)
	}
	switch kind {
	case ExoPlayerDASH:
		return exoplayer.NewDASH(m.Video, m.Audio), nil, nil
	case DashJS:
		return dashjs.New(m.Video, m.Audio), nil, nil
	case ExoPlayerHLS:
		return exoplayer.NewHLS(m.Combos, m.AudioOrder), m.Combos, nil
	case Shaka:
		return shaka.NewHLS(m.Combos), m.Combos, nil
	case BestPractice:
		return jointabr.New(m.Combos), m.Combos, nil
	case BestPracticeAbandon:
		return jointabr.New(m.Combos, jointabr.WithAbandonment()), m.Combos, nil
	case BolaJoint:
		return jointabr.NewBolaJoint(m.Combos, 0), m.Combos, nil
	case MPCJoint:
		return jointabr.NewMPC(m.Combos, 0), m.Combos, nil
	case VBRJoint:
		return jointabr.NewVBRAware(m.Combos, m.sizer), m.Combos, nil
	case DynamicJoint:
		return jointabr.NewDynamicJoint(m.Combos), m.Combos, nil
	case LLDefault:
		return lowlat.NewDefault(m.Combos), m.Combos, nil
	case LLL2A:
		return lowlat.NewL2A(m.Combos), m.Combos, nil
	case LLLoLP:
		return lowlat.NewLoLP(m.Combos), m.Combos, nil
	default:
		return jointabr.NewIndependent(m.Combos), m.Combos, nil
	}
}

// chunkSizerFromPlaylists recovers per-chunk byte sizes the way a §4.1
// client does: from the single-file media playlists' EXT-X-BYTERANGE rows.
func chunkSizerFromPlaylists(c *media.Content) (jointabr.ChunkSizer, error) {
	sizes := make(map[string][]int64, len(c.Tracks()))
	for _, tr := range c.Tracks() {
		pl, err := ParseMediaPlaylist(c, tr)
		if err != nil {
			return nil, err
		}
		per := make([]int64, len(pl.Segments))
		for i, seg := range pl.Segments {
			per[i] = seg.ByteRangeLength
		}
		sizes[tr.ID] = per
	}
	return func(tr *media.Track, idx int) int64 {
		per := sizes[tr.ID]
		if idx < 0 || idx >= len(per) {
			return 0
		}
		return per[idx]
	}, nil
}

// ParseMediaPlaylist generates a track's single-file media playlist and
// parses it back: the second-level manifest whose byte ranges §4.1
// clients read for per-track and per-chunk sizes.
func ParseMediaPlaylist(c *media.Content, tr *media.Track) (*hls.MediaPlaylist, error) {
	var buf bytes.Buffer
	if err := hls.GenerateMedia(c, tr, hls.SingleFile, false).Encode(&buf); err != nil {
		return nil, err
	}
	return hls.ParseMedia(&buf)
}

func roundTripMPD(c *media.Content) (media.Ladder, media.Ladder, error) {
	var buf bytes.Buffer
	if err := dash.Generate(c).Encode(&buf); err != nil {
		return nil, nil, err
	}
	mpd, err := dash.Parse(&buf)
	if err != nil {
		return nil, nil, err
	}
	return dash.Ladders(mpd)
}

func roundTripMaster(c *media.Content, combos []media.Combo, order []*media.Track) ([]media.Combo, []*media.Track, error) {
	var buf bytes.Buffer
	if err := hls.GenerateMaster(c, combos, order).Encode(&buf); err != nil {
		return nil, nil, err
	}
	m, err := hls.ParseMaster(&buf)
	if err != nil {
		return nil, nil, err
	}
	parsed, err := hls.CombosFromMaster(m, c)
	if err != nil {
		return nil, nil, err
	}
	parsedOrder, err := hls.AudioOrderFromMaster(m, c)
	if err != nil {
		return nil, nil, err
	}
	return parsed, parsedOrder, nil
}

// Spec describes one streaming session.
type Spec struct {
	// Content is the asset (default: the paper's drama show).
	Content *media.Content
	// Profile is the network condition (required).
	Profile trace.Profile
	// Player picks a built-in model (default BestPractice). Ignored when
	// Model is set.
	Player PlayerKind
	// Model overrides Player with a custom algorithm.
	Model abr.Algorithm
	// Manifest controls server-side declarations.
	Manifest ManifestOptions
	// MaxBuffer, StartupBuffer, ResumeBuffer override the player engine's
	// defaults when non-zero.
	MaxBuffer     time.Duration
	StartupBuffer time.Duration
	ResumeBuffer  time.Duration
	// Muxed streams each combination as one combined object (the paper's
	// muxed packaging baseline). Requires a joint player model.
	Muxed bool
	// Faults injects seeded download failures and link blackouts (demuxed
	// sessions only).
	Faults *faults.Plan
	// Robustness enables retries, blacklisting and failover; nil keeps the
	// legacy fail-fast behaviour (the session aborts on the first fault).
	Robustness *faults.Policy
	// Deadline overrides the engine's default session deadline when
	// non-zero.
	Deadline time.Duration
	// Recorder, when non-nil, collects the session's flight-recorder
	// events (ABR decisions, request lifecycle, stalls, link-rate changes;
	// see internal/timeline). Nil disables recording.
	Recorder *timeline.Recorder
	// RTT is the link's request round trip; zero keeps the paper's
	// negligible-RTT testbed. Transport handshake costs scale with it.
	RTT time.Duration
	// Transport, when non-nil, routes requests through transport
	// connections (handshakes, stream caps, HoL coupling; see
	// netsim.Conn). Nil keeps requests directly on the link.
	Transport *netsim.TransportConfig
	// Live, when non-nil, runs the session in latency-target live mode
	// (availability gating, catch-up rate control, live-edge resync; see
	// player.LiveConfig). Nil keeps the exact VOD behaviour.
	Live *player.LiveConfig
}

// Session is a finished run: the raw result plus derived metrics.
type Session struct {
	// Model names the algorithm that ran.
	Model string
	// Result is the full timeline, stall and chunk log.
	Result *player.Result
	// Metrics are the QoE numbers (off-manifest counted against Allowed).
	Metrics qoe.Metrics
	// Allowed is the server-declared combination list (may be nil).
	Allowed []media.Combo
}

// Play runs one session in the discrete-event simulator.
func Play(spec Spec) (*Session, error) {
	if spec.Profile == nil {
		return nil, fmt.Errorf("core: nil network profile")
	}
	if spec.Content == nil {
		spec.Content = media.DramaShow()
	}
	model := spec.Model
	allowed := spec.Manifest.Combos
	if model == nil {
		kind := spec.Player
		if kind == "" {
			kind = BestPractice
		}
		var err error
		model, allowed, err = BuildModel(kind, spec.Content, spec.Manifest)
		if err != nil {
			return nil, err
		}
	}
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, spec.Profile)
	link.RTT = spec.RTT
	if spec.Recorder != nil {
		link.SetRecorder(spec.Recorder, "link")
	}
	res, err := player.Run(link, player.Config{
		Content:       spec.Content,
		Model:         model,
		MaxBuffer:     spec.MaxBuffer,
		StartupBuffer: spec.StartupBuffer,
		ResumeBuffer:  spec.ResumeBuffer,
		Muxed:         spec.Muxed,
		FaultPlan:     spec.Faults,
		Robustness:    spec.Robustness,
		Deadline:      spec.Deadline,
		Recorder:      spec.Recorder,
		Transport:     spec.Transport,
		Live:          spec.Live,
	})
	if err != nil {
		return nil, err
	}
	return &Session{
		Model:   model.Name(),
		Result:  res,
		Metrics: qoe.Compute(res, spec.Content, allowed, qoe.DefaultWeights()),
		Allowed: allowed,
	}, nil
}
