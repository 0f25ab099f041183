package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/report"
	"demuxabr/internal/runpool"
	"demuxabr/internal/shaping"
	"demuxabr/internal/trace"
)

// soloSession is one serial single-link session of the solo workload.
type soloSession struct {
	profileName string
	profile     trace.Profile
	variant     string
	content     *media.Content
	kind        core.PlayerKind
}

// soloWorkload is the paper's seven network profiles × the VOD player
// kinds × two preparations of the drama show: uniform 5 s chunks, and a
// Segue-shaped variant.
type soloWorkload struct {
	list []soloSession
	// shapeNs is the host time shaping.Optimize took while building the
	// inputs.
	shapeNs int64
}

// vodKinds is every player kind except the live-only low-latency trio.
func vodKinds() []core.PlayerKind {
	var out []core.PlayerKind
	for _, k := range core.PlayerKinds() {
		switch k {
		case core.LLDefault, core.LLL2A, core.LLLoLP:
		default:
			out = append(out, k)
		}
	}
	return out
}

// segueContent prepares the drama show through the offline shaping stage
// seeded with seed. Audio takes the video boundary table, so the variable
// chunk durations stay aligned across types and every joint model (which
// pairs audio with video by chunk index) can stream it.
func segueContent(seed int64) (*media.Content, error) {
	base := media.ContentSpec{
		Name:          "drama-show-segue",
		Duration:      media.DramaDuration,
		ChunkDuration: media.DramaChunkDuration,
		VideoTracks:   media.DramaVideoLadder(),
		AudioTracks:   media.DramaAudioLadder(),
		Model:         media.DefaultChunkModel(),
	}
	plan, err := shaping.Optimize(base, shaping.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	spec := plan.Spec(base)
	spec.AudioChunks = spec.VideoChunks
	return media.NewContent(spec)
}

func newSoloWorkload(seed int64) (*soloWorkload, error) {
	start := nanotime()
	segue, err := segueContent(seed)
	if err != nil {
		return nil, fmt.Errorf("shaping: %w", err)
	}
	w := &soloWorkload{shapeNs: nanotime() - start}
	variants := []struct {
		name string
		c    *media.Content
	}{{"uniform", media.DramaShow()}, {"segue", segue}}
	for _, name := range trace.Names() {
		var p trace.Profile
		if name == "lte" {
			p = trace.LTEProfile(seed, 4*time.Second, time.Minute)
		} else if p, err = trace.Named(name); err != nil {
			return nil, err
		}
		for _, v := range variants {
			for _, k := range vodKinds() {
				w.list = append(w.list, soloSession{name, p, v.name, v.c, k})
			}
		}
	}
	return w, nil
}

func (w *soloWorkload) sessions() int { return len(w.list) }

// warmup plays each player kind once on the shortest-running profile.
func (w *soloWorkload) warmup() error {
	for _, s := range w.list {
		if s.profileName != "exohls-5m" || s.variant != "uniform" {
			continue
		}
		if _, err := core.Play(core.Spec{Content: s.content, Profile: s.profile, Player: s.kind}); err != nil {
			return err
		}
	}
	return nil
}

// run plays every session through core.Play: serially with par 1, or fanned
// across par runpool workers. It records each session's CPU time on the
// thread that played it: unlike wall time, that leaves out the time the
// hypervisor gave the vCPU to other guests, which a session of a
// millisecond or two suffers in some reps and not in others.
func (w *soloWorkload) run(par int) (unitResult, error) {
	type out struct {
		line string
		cpu  time.Duration
	}
	outs, err := runpool.Map(par, len(w.list), func(i int) (out, error) {
		s := w.list[i]
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := threadCPUTime()
		sess, err := core.Play(core.Spec{Content: s.content, Profile: s.profile, Player: s.kind})
		cpu := threadCPUTime() - start
		if err != nil {
			return out{}, fmt.Errorf("%s/%s/%s: %w", s.profileName, s.variant, s.kind, err)
		}
		return out{soloLine(s, sess.Result, sess.Metrics), cpu}, nil
	})
	if err != nil {
		return unitResult{}, err
	}
	lines := make([]string, len(outs))
	res := unitResult{sessionCPU: make([]time.Duration, len(outs))}
	for i, o := range outs {
		lines[i], res.sessionCPU[i] = o.line, o.cpu
	}
	res.digest = soloDigest(lines)
	return res, nil
}

// replay runs the sessions through the benchmark's own mirror of
// core.Play, stepping each engine from the benchmark's loop.
func (w *soloWorkload) replay(_ int, traced bool) (string, *tracer, error) {
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	lines := make([]string, len(w.list))
	for i, s := range w.list {
		res, m, err := playSolo(s, tr)
		if err != nil {
			return "", nil, fmt.Errorf("%s/%s/%s: %w", s.profileName, s.variant, s.kind, err)
		}
		lines[i] = soloLine(s, res, m)
	}
	return soloDigest(lines), tr, nil
}

// playSolo mirrors core.Play: model from the round-tripped manifest, one
// engine and link, player.Start, the engine run to the session's end, QoE.
func playSolo(s soloSession, tr *tracer) (*player.Result, qoe.Metrics, error) {
	st := tr.begin()
	model, allowed, err := core.BuildModel(s.kind, s.content, core.ManifestOptions{})
	if err != nil {
		return nil, qoe.Metrics{}, err
	}
	if tr != nil {
		tr.end(st, &tr.buildNs)
		tr.buildCalls++
		model = wrapModel(model, tr)
	}
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, s.profile)
	cfg := player.Config{
		Content: s.content,
		Model:   model,
		OnDone:  func(*player.Session) { eng.Stop() },
	}
	if tr != nil {
		cfg.OnRequest = func(player.ChunkRequest) time.Duration {
			tr.requests++
			return 0
		}
	}
	st = tr.begin()
	sess, err := player.Start(link, link, cfg)
	if tr != nil {
		tr.end(st, &tr.playerStartNs)
		tr.playerStarts++
	}
	if err != nil {
		return nil, qoe.Metrics{}, err
	}
	// player.Config's default event budget, as player.Run applies it.
	if err := step(eng, 20_000_000, tr); err != nil {
		return nil, qoe.Metrics{}, err
	}
	res := sess.Result()
	st = tr.begin()
	m := qoe.Compute(res, s.content, allowed, qoe.DefaultWeights())
	if tr != nil {
		tr.end(st, &tr.qoeNs)
		tr.qoeCalls++
		tr.observeSession(res, nil)
	}
	return res, m, nil
}

// soloLine is one session's simulated outcome in the digest.
func soloLine(s soloSession, r *player.Result, m qoe.Metrics) string {
	b, err := json.Marshal(report.MetricsFrom(m))
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return fmt.Sprintf("%s/%s/%s ended=%t chunks=%d retries=%d %s",
		s.profileName, s.variant, s.kind, r.Ended, len(r.Chunks), r.Retries, b)
}

func soloDigest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
