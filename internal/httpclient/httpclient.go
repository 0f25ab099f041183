// Package httpclient is a real-time streaming client: it fetches a DASH
// manifest from an origin (package originserver or any server with the
// same layout), reconstructs the track ladders, and streams chunks over
// real HTTP while driving one of the library's ABR models — the end-to-end
// integration path complementing the discrete-event simulator.
package httpclient

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/faults"
	"demuxabr/internal/manifest/dash"
	"demuxabr/internal/media"
)

// Manifest is the client's view of the stream, reconstructed from the MPD.
type Manifest struct {
	Video         media.Ladder
	Audio         media.Ladder
	Duration      time.Duration
	ChunkDuration time.Duration
	// mediaTemplates holds each AdaptationSet's SegmentTemplate media
	// pattern, indexed by media.Type — segment addressing never assumes
	// anything about the path layout beyond the $…$ substitutions.
	mediaTemplates [2]string
	// segments holds the per-segment durations expanded from the MPD's
	// SegmentTemplate (timeline when declared, nominal tiling otherwise) —
	// the authoritative chunk count and index↔time source. The old
	// Duration/ChunkDuration division over-counted whenever a declared
	// timeline disagreed with the nominal duration.
	segments []time.Duration
}

// NumChunks returns the chunk count.
func (m *Manifest) NumChunks() int {
	if len(m.segments) > 0 {
		return len(m.segments)
	}
	n := int(m.Duration / m.ChunkDuration)
	if m.Duration%m.ChunkDuration != 0 {
		n++
	}
	return n
}

// SegmentDurationAt implements Source: the actual duration of segment idx.
func (m *Manifest) SegmentDurationAt(idx int) time.Duration {
	if idx < 0 || idx >= len(m.segments) {
		return m.ChunkDuration
	}
	return m.segments[idx]
}

// SegmentPath expands the track's SegmentTemplate for an index into the
// origin-relative path.
func (m *Manifest) SegmentPath(tr *media.Track, idx int) string {
	p := strings.ReplaceAll(m.mediaTemplates[tr.Type], "$RepresentationID$", tr.ID)
	return strings.ReplaceAll(p, "$Number$", strconv.Itoa(idx))
}

// ChunkDur implements Source.
func (m *Manifest) ChunkDur() time.Duration { return m.ChunkDuration }

// Tracks implements Source: the ladder of one type, ascending bitrate.
func (m *Manifest) Tracks(t media.Type) []*media.Track {
	if t == media.Video {
		return m.Video
	}
	return m.Audio
}

// Source is the client's addressing view of a stream: how many chunks, how
// long each is, where each track's segments live, and which tracks exist
// (the robustness policy's failover candidates). Both the DASH Manifest
// and the HLSManifest implement it.
type Source interface {
	NumChunks() int
	ChunkDur() time.Duration
	// SegmentDurationAt is the actual duration of segment idx; it equals
	// ChunkDur on uniform content but diverges on declared-variable
	// timelines, where playback-clock arithmetic must use it.
	SegmentDurationAt(idx int) time.Duration
	SegmentPath(tr *media.Track, idx int) string
	Tracks(t media.Type) []*media.Track
}

// equalDurations reports element-wise equality of two duration slices.
func equalDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// drainAndClose consumes up to 64 KiB of a response body before closing so
// the keep-alive connection can be reused — exactly the error-heavy paths
// where reconnecting hurts most.
func drainAndClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}

// FetchManifest downloads and parses baseURL/manifest.mpd. A nil client
// uses http.DefaultClient.
func FetchManifest(ctx context.Context, client *http.Client, baseURL string) (*Manifest, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/manifest.mpd", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drainAndClose(resp.Body)
		return nil, fmt.Errorf("httpclient: manifest: %s", resp.Status)
	}
	mpd, err := dash.Parse(resp.Body)
	if err != nil {
		return nil, err
	}
	video, audio, err := dash.Ladders(mpd)
	if err != nil {
		return nil, err
	}
	dur, err := dash.ParseDuration(mpd.MediaPresentationDuration)
	if err != nil {
		return nil, err
	}
	m := &Manifest{Video: video, Audio: audio, Duration: dur}
	// Each AdaptationSet carries its own SegmentTemplate; the set's
	// declared content type says which ladder it addresses. No assumption
	// is made about the template's path shape.
	for i, as := range mpd.Periods[0].AdaptationSets {
		var typ media.Type
		switch as.ContentType {
		case "video":
			typ = media.Video
		case "audio":
			typ = media.Audio
		default:
			return nil, fmt.Errorf("httpclient: AdaptationSet %d has unsupported contentType %q", i, as.ContentType)
		}
		st := as.SegmentTemplate
		if st == nil || st.Timescale == 0 {
			return nil, fmt.Errorf("httpclient: %s AdaptationSet lacks a usable SegmentTemplate", as.ContentType)
		}
		if !strings.Contains(st.Media, "$RepresentationID$") || !strings.Contains(st.Media, "$Number$") {
			return nil, fmt.Errorf("httpclient: cannot address segments with media template %q (need $RepresentationID$ and $Number$)", st.Media)
		}
		segs, err := st.SegmentDurations(dur)
		if err != nil {
			return nil, fmt.Errorf("httpclient: %s AdaptationSet: %w", as.ContentType, err)
		}
		// This client fetches audio and video at the same chunk index, so
		// it can only play streams whose timelines agree. Shaped per-type
		// timelines need an index-independent client (the simulator's
		// per-type models); refusing here beats silently pairing chunk i of
		// one timeline with an overlapping-but-different chunk i of the other.
		if m.segments != nil && !equalDurations(m.segments, segs) {
			return nil, fmt.Errorf("httpclient: audio and video segment timelines disagree; this joint-index client requires aligned timelines")
		}
		m.segments = segs
		if m.ChunkDuration == 0 {
			// Nominal chunk duration for ABR state: the declared @duration
			// when present, else the longest declared segment.
			if st.Duration > 0 {
				m.ChunkDuration = time.Duration(st.Duration) * time.Second / time.Duration(st.Timescale)
			} else {
				for _, d := range segs {
					if d > m.ChunkDuration {
						m.ChunkDuration = d
					}
				}
			}
		}
		if m.ChunkDuration <= 0 {
			return nil, fmt.Errorf("httpclient: non-positive chunk duration")
		}
		m.mediaTemplates[typ] = st.Media
	}
	if m.mediaTemplates[media.Video] == "" || m.mediaTemplates[media.Audio] == "" {
		return nil, fmt.Errorf("httpclient: MPD must declare one video and one audio AdaptationSet")
	}
	return m, nil
}

// Config parameterizes a streaming run.
type Config struct {
	// BaseURL is the origin root (no trailing slash).
	BaseURL string
	// Model is the joint adaptation algorithm (e.g. exoplayer.NewDASH or
	// jointabr.New built from the fetched manifest).
	Model abr.JointAlgorithm
	// TargetBuffer pauses fetching while this much content is buffered
	// ahead of playback. Default 10 s.
	TargetBuffer time.Duration
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxChunks limits the session length (0 = whole content).
	MaxChunks int
	// Robustness enables per-request timeouts, seeded-backoff retries,
	// per-track blacklisting and failover. Nil keeps the legacy fail-fast
	// behaviour: the first fetch error ends the session.
	Robustness *faults.Policy
	// RetrySeed keys the backoff jitter (default 1).
	RetrySeed int64
}

// ChunkFetch records one downloaded chunk.
type ChunkFetch struct {
	Index int
	// Combo is the pair actually fetched — after any failover, which may
	// differ from what the model selected.
	Combo    media.Combo
	Bytes    int64
	Duration time.Duration
}

// FaultRecord is one failed segment request on the real HTTP path.
type FaultRecord struct {
	// Path is the segment path that failed; Type and Index locate it.
	Path  string
	Type  media.Type
	Index int
	// Attempt is which try failed (0 = the first request to this track).
	Attempt int
	// At is the offset from session start.
	At time.Duration
	// Err is the failure's error string.
	Err string
}

// Report summarizes a real-time streaming session.
type Report struct {
	Chunks     []ChunkFetch
	TotalBytes int64
	Elapsed    time.Duration
	// Rebuffered is wall time during which playback would have been
	// stalled (playback clock caught up with the downloaded frontier).
	Rebuffered   time.Duration
	StartupDelay time.Duration
	// Faults lists every failed segment request, in detection order.
	Faults []FaultRecord
	// Retries counts re-issued requests; Failovers counts track
	// substitutions after a track's attempt budget was spent.
	Retries   int
	Failovers int
}

// Stream plays the source's content from the origin in real time. On
// error it returns the partial Report accumulated so far (chunks fetched,
// stall time, fault log) alongside the error — never nil with a non-nil
// error once the session has started.
func Stream(ctx context.Context, m Source, cfg Config) (*Report, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("httpclient: nil model")
	}
	if cfg.TargetBuffer <= 0 {
		cfg.TargetBuffer = 10 * time.Second
	}
	client := cfg.HTTPClient
	if client == nil {
		client = http.DefaultClient
	}
	n := m.NumChunks()
	if cfg.MaxChunks > 0 && cfg.MaxChunks < n {
		n = cfg.MaxChunks
	}
	chunkDur := m.ChunkDur()
	rep := &Report{}
	begin := time.Now()
	s := &streamer{cfg: cfg, client: client, src: m, rep: rep, begin: begin}
	if cfg.Robustness != nil {
		pol := cfg.Robustness.WithDefaults()
		s.pol = &pol
		s.bl = faults.NewBlacklist()
	}
	var frontier time.Duration // downloaded content
	var playStart time.Time    // set at first chunk
	var stalled time.Duration

	playPos := func(now time.Time) time.Duration {
		if playStart.IsZero() {
			return 0
		}
		pos := now.Sub(playStart) - stalled
		if pos > frontier {
			// The playback clock cannot pass the frontier; the excess is
			// rebuffering.
			stalled += pos - frontier
			pos = frontier
		}
		return pos
	}
	// finish stamps the totals so even an error return carries the partial
	// session.
	finish := func(err error) (*Report, error) {
		playPos(time.Now())
		rep.Elapsed = time.Since(begin)
		rep.Rebuffered = stalled
		return rep, err
	}

	for idx := 0; idx < n; idx++ {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		now := time.Now()
		pos := playPos(now)
		buffered := frontier - pos
		st := abr.State{
			Now:           now.Sub(begin),
			PlayPos:       pos,
			VideoBuffer:   buffered,
			AudioBuffer:   buffered,
			ChunkIndex:    idx,
			ChunkDuration: chunkDur,
			Startup:       playStart.IsZero(),
		}
		combo := cfg.Model.SelectCombo(st)
		if combo.Video == nil || combo.Audio == nil {
			return finish(fmt.Errorf("httpclient: model returned incomplete combo at chunk %d", idx))
		}
		bytes, dur, fetched, err := s.fetchPair(ctx, combo, idx)
		if err != nil {
			return finish(err)
		}
		rep.Chunks = append(rep.Chunks, ChunkFetch{Index: idx, Combo: fetched, Bytes: bytes, Duration: dur})
		rep.TotalBytes += bytes
		// Advance the frontier by the segment's actual duration — on a
		// declared-variable timeline crediting the nominal chunkDur would
		// drift the playback clock off the downloaded media.
		frontier += m.SegmentDurationAt(idx)
		if playStart.IsZero() {
			playStart = time.Now()
			rep.StartupDelay = playStart.Sub(begin)
		}
		// Pause fetching while the buffer exceeds the target.
		if excess := (frontier - playPos(time.Now())) - cfg.TargetBuffer; excess > 0 {
			select {
			case <-ctx.Done():
				return finish(ctx.Err())
			case <-time.After(excess):
			}
		}
	}
	return finish(nil)
}

// streamer carries one session's shared state. ABR models are
// intentionally unsynchronized (the simulator is single-threaded), so
// every observer call is serialized behind obs; mu guards the report
// counters and the blacklist.
type streamer struct {
	cfg    Config
	client *http.Client
	src    Source
	pol    *faults.Policy // normalized; nil = fail fast
	begin  time.Time

	obs sync.Mutex
	mu  sync.Mutex
	bl  *faults.Blacklist
	rep *Report
}

func (s *streamer) retrySeed() int64 {
	if s.cfg.RetrySeed != 0 {
		return s.cfg.RetrySeed
	}
	return 1
}

// fetchPair downloads the audio and video chunk of one position
// concurrently. It returns the combination actually fetched, which may
// differ from the model's selection after a failover.
func (s *streamer) fetchPair(ctx context.Context, combo media.Combo, idx int) (int64, time.Duration, media.Combo, error) {
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total int64
	var firstErr error
	fetched := combo
	for _, tr := range []*media.Track{combo.Video, combo.Audio} {
		tr := tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			bytes, used, err := s.fetchTrack(ctx, tr, idx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			total += bytes
			if used != nil {
				if used.Type == media.Video {
					fetched.Video = used
				} else {
					fetched.Audio = used
				}
			}
		}()
	}
	wg.Wait()
	return total, time.Since(start), fetched, firstErr
}

// fetchTrack is the per-track load-error handler: fetch with a per-request
// timeout, retry with seeded backoff while the attempt budget lasts,
// blacklist repeat offenders, and fail over to the nearest healthy track.
// Without a policy the first error is final. The other media type's
// goroutine streams on regardless — one failing track never halts its
// sibling.
func (s *streamer) fetchTrack(ctx context.Context, tr *media.Track, idx int) (int64, *media.Track, error) {
	track := tr
	attempt := 0
	for {
		if s.pol != nil && s.blocked(track.ID) {
			if repl := s.failover(track); repl != nil && repl != track {
				s.count(func(r *Report) { r.Failovers++ })
				track = repl
				attempt = 0
			}
		}
		reqCtx := ctx
		cancel := func() {}
		if s.pol != nil && s.pol.RequestTimeout > 0 {
			reqCtx, cancel = context.WithTimeout(ctx, s.pol.RequestTimeout)
		}
		n, err := s.fetchOne(reqCtx, track, idx)
		cancel()
		if err == nil {
			if s.pol != nil {
				s.mu.Lock()
				s.bl.Clear(track.ID)
				s.mu.Unlock()
			}
			return n, track, nil
		}
		now := time.Since(s.begin)
		s.count(func(r *Report) {
			r.Faults = append(r.Faults, FaultRecord{
				Path: s.src.SegmentPath(track, idx), Type: track.Type, Index: idx,
				Attempt: attempt, At: now, Err: err.Error(),
			})
		})
		if ctx.Err() != nil || s.pol == nil {
			return n, track, err
		}
		s.mu.Lock()
		blocked := s.bl.Strike(track.ID, now, *s.pol)
		s.mu.Unlock()
		key := faults.Key(s.retrySeed(), track.ID, idx)
		if !blocked && attempt+1 < s.pol.MaxAttempts {
			s.count(func(r *Report) { r.Retries++ })
			if serr := sleepCtx(ctx, s.pol.Backoff(attempt, key)); serr != nil {
				return n, track, serr
			}
			attempt++
			continue
		}
		repl := s.failover(track)
		if repl == nil || repl == track {
			return n, track, fmt.Errorf("httpclient: no failover candidate left for %s chunk %d: %w", track.ID, idx, err)
		}
		s.count(func(r *Report) { r.Failovers++; r.Retries++ })
		if serr := sleepCtx(ctx, s.pol.Backoff(attempt, key)); serr != nil {
			return n, track, serr
		}
		track = repl
		attempt = 0
	}
}

// count runs a report mutation under the state lock.
func (s *streamer) count(fn func(*Report)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.rep)
}

func (s *streamer) blocked(trackID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bl.Blocked(trackID, time.Since(s.begin))
}

// failover picks the substitute for a failing track (see
// faults.Blacklist.Failover). When every track is exiled it returns the
// cheapest one, which fetchTrack tries before giving up.
func (s *streamer) failover(failed *media.Track) *media.Track {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bl.Failover(s.src.Tracks(failed.Type), failed, time.Since(s.begin))
}

// sleepCtx waits d or until the context dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (s *streamer) fetchOne(ctx context.Context, tr *media.Track, idx int) (int64, error) {
	path := s.src.SegmentPath(tr, idx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cfg.BaseURL+"/"+path, nil)
	if err != nil {
		return 0, err
	}
	begin := time.Now()
	observe := func(fn func()) {
		s.obs.Lock()
		defer s.obs.Unlock()
		fn()
	}
	observe(func() { s.cfg.Model.OnStart(abr.TransferInfo{Type: tr.Type, At: time.Since(begin)}) })
	// closeOut balances the OnStart for every exit path so observers that
	// pair start/complete events stay consistent; failed requests report
	// the bytes that did arrive.
	closeOut := func(total int64) {
		observe(func() {
			s.cfg.Model.OnComplete(abr.TransferInfo{
				Type:     tr.Type,
				Bytes:    float64(total),
				Duration: time.Since(begin),
				At:       time.Since(begin),
			})
		})
	}
	resp, err := s.client.Do(req)
	if err != nil {
		closeOut(0)
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drainAndClose(resp.Body)
		closeOut(0)
		return 0, fmt.Errorf("httpclient: %s: %s", path, resp.Status)
	}
	var total int64
	buf := make([]byte, 32*1024)
	lastReport := time.Now()
	for {
		nr, rerr := resp.Body.Read(buf)
		if nr > 0 {
			total += int64(nr)
			now := time.Now()
			observe(func() {
				s.cfg.Model.OnProgress(abr.TransferInfo{
					Type:     tr.Type,
					Bytes:    float64(nr),
					Duration: now.Sub(lastReport),
					At:       now.Sub(begin),
				})
			})
			lastReport = now
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			closeOut(total)
			return total, rerr
		}
	}
	// A body shorter than the declared length is a truncated download,
	// not a success — Body.Read returns clean EOF in that case.
	if resp.ContentLength >= 0 && total < resp.ContentLength {
		closeOut(total)
		return total, fmt.Errorf("httpclient: %s: truncated body (%d of %d bytes)", path, total, resp.ContentLength)
	}
	closeOut(total)
	return total, nil
}
