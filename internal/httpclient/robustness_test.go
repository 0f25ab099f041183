package httpclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/faults"
	"demuxabr/internal/manifest/dash"
	"demuxabr/internal/media"
	"demuxabr/internal/originserver"
)

// pinned is a joint model that always selects one combination — fault tests
// need to know exactly which segment paths will be requested.
type pinned struct {
	abr.NopObserver
	combo media.Combo
}

func (p *pinned) Name() string                      { return "pinned" }
func (p *pinned) SelectCombo(abr.State) media.Combo { return p.combo }

// flakyOrigin wraps a faithful origin with a per-path script of misbehaviors
// consumed one entry per request: "404", "503", "reset", "hang", or "ok"
// (pass through). Requests beyond the script pass through.
type flakyOrigin struct {
	inner http.Handler

	mu     sync.Mutex
	script map[string][]string
	hits   map[string]int
}

func newFlakyOrigin(inner http.Handler, script map[string][]string) *flakyOrigin {
	return &flakyOrigin{inner: inner, script: script, hits: make(map[string]int)}
}

func (f *flakyOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	n := f.hits[r.URL.Path]
	f.hits[r.URL.Path] = n + 1
	steps := f.script[r.URL.Path]
	f.mu.Unlock()
	step := "ok"
	if n < len(steps) {
		step = steps[n]
	}
	switch step {
	case "404":
		http.Error(w, "scripted 404", http.StatusNotFound)
	case "503":
		http.Error(w, "scripted 503", http.StatusServiceUnavailable)
	case "reset":
		panic(http.ErrAbortHandler)
	case "hang":
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		panic(http.ErrAbortHandler)
	default:
		f.inner.ServeHTTP(w, r)
	}
}

// fastPolicy keeps retry latency test-sized.
func fastPolicy() *faults.Policy {
	pol := faults.DefaultPolicy()
	pol.RequestTimeout = 500 * time.Millisecond
	pol.BaseBackoff = 5 * time.Millisecond
	pol.MaxBackoff = 20 * time.Millisecond
	return &pol
}

func lowCombo(m *Manifest) media.Combo {
	return media.Combo{Video: m.Video[0], Audio: m.Audio[0]}
}

func TestManifestFetchFailureSurfacesStatus(t *testing.T) {
	content := tinyContent()
	flaky := newFlakyOrigin(originserver.New(content, originserver.Options{}).Handler(),
		map[string][]string{"/manifest.mpd": {"503"}})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	_, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("want a 503 manifest error, got %v", err)
	}
	// The origin recovered: the next fetch must succeed over the same client.
	if _, err := FetchManifest(context.Background(), srv.Client(), srv.URL); err != nil {
		t.Fatalf("recovered origin still failing: %v", err)
	}
}

func TestMidSessionFailureReturnsPartialReport(t *testing.T) {
	content := tinyContent()
	flaky := newFlakyOrigin(originserver.New(content, originserver.Options{}).Handler(),
		map[string][]string{"/video/V1/seg-2.m4s": {"404"}})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: lowCombo(m)},
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
	})
	if err == nil {
		t.Fatal("policy-less session survived a 404")
	}
	if rep == nil {
		t.Fatal("error return discarded the partial report")
	}
	if len(rep.Chunks) != 2 {
		t.Errorf("partial report carries %d chunks, want the 2 fetched before the failure", len(rep.Chunks))
	}
	if rep.Elapsed <= 0 {
		t.Error("partial report missing Elapsed")
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Index != 2 || rep.Faults[0].Type != media.Video {
		t.Errorf("fault log = %+v, want one video fault at index 2", rep.Faults)
	}
}

func TestPolicyRetriesScriptedTransients(t *testing.T) {
	content := tinyContent()
	// Three different transient failure modes, one per early video segment;
	// every retry hits a recovered origin.
	flaky := newFlakyOrigin(originserver.New(content, originserver.Options{}).Handler(),
		map[string][]string{
			"/video/V1/seg-0.m4s": {"503"},
			"/video/V1/seg-1.m4s": {"reset"},
			"/video/V1/seg-2.m4s": {"hang"},
			"/audio/A1/seg-1.m4s": {"404"},
		})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	// Fresh connections per request: net/http transparently replays a GET
	// whose reused keep-alive connection was reset, which would absorb the
	// scripted reset before the policy ever saw it.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	m, err := FetchManifest(context.Background(), client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: lowCombo(m)},
		HTTPClient:   client,
		TargetBuffer: 30 * time.Second,
		MaxChunks:    5,
		Robustness:   fastPolicy(),
	})
	if err != nil {
		t.Fatalf("robust session failed: %v (report %+v)", err, rep)
	}
	if len(rep.Chunks) != 5 {
		t.Fatalf("fetched %d chunks, want 5", len(rep.Chunks))
	}
	if len(rep.Faults) != 4 {
		t.Errorf("recorded %d faults, want 4 (one per scripted failure)", len(rep.Faults))
	}
	if rep.Retries != 4 {
		t.Errorf("retries = %d, want 4", rep.Retries)
	}
	if rep.Failovers != 0 {
		t.Errorf("failovers = %d for transient faults, want 0", rep.Failovers)
	}
}

func TestPersistentTrackFailureFailsOverHTTP(t *testing.T) {
	content := tinyContent()
	// A1 is permanently gone at the origin. The session must finish on a
	// different audio track.
	plan := &faults.Plan{
		Seed: 4, Rate: 1,
		Kinds:          []faults.Kind{faults.HTTP404},
		Targets:        []string{"A1"},
		MaxPersistence: -1,
	}
	srv := httptest.NewServer(originserver.New(content, originserver.Options{Faults: plan}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: lowCombo(m)}, // keeps asking for A1
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
		MaxChunks:    4,
		Robustness:   fastPolicy(),
	})
	if err != nil {
		t.Fatalf("failover session failed: %v", err)
	}
	if rep.Failovers == 0 {
		t.Fatal("no failover recorded for a dead track")
	}
	for _, ch := range rep.Chunks {
		if ch.Combo.Audio.ID == "A1" {
			t.Fatalf("chunk %d reported as fetched from the dead track", ch.Index)
		}
	}
}

func TestTruncatedBodyDetected(t *testing.T) {
	content := tinyContent()
	plan := &faults.Plan{
		Seed: 8, Rate: 1,
		Kinds:          []faults.Kind{faults.Truncate},
		Targets:        []string{"V1"},
		MaxPersistence: 1,
	}
	srv := httptest.NewServer(originserver.New(content, originserver.Options{Faults: plan}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Policy off: the first truncated body must fail the session, and the
	// partial report must name the truncation.
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: lowCombo(m)},
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
		MaxChunks:    2,
	})
	if err == nil {
		t.Fatal("truncated body passed as success")
	}
	// net/http reports the short read as unexpected EOF when it enforces
	// the declared Content-Length itself; the client's own length check
	// catches transports that don't.
	if !strings.Contains(err.Error(), "truncated body") && !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("error %v does not identify the truncation", err)
	}
	if rep == nil || len(rep.Faults) == 0 {
		t.Fatal("truncation missing from the partial report's fault log")
	}
	// Policy on over a fresh origin (fresh attempt counters): the transient
	// truncation clears on retry and the session completes.
	srv2 := httptest.NewServer(originserver.New(content, originserver.Options{Faults: plan}).Handler())
	defer srv2.Close()
	rep, err = Stream(context.Background(), m, Config{
		BaseURL:      srv2.URL,
		Model:        &pinned{combo: lowCombo(m)},
		HTTPClient:   srv2.Client(),
		TargetBuffer: 30 * time.Second,
		MaxChunks:    2,
		Robustness:   fastPolicy(),
	})
	if err != nil {
		t.Fatalf("robust session failed on transient truncation: %v", err)
	}
	if rep.Retries == 0 {
		t.Error("no retries recorded for transient truncations")
	}
}

func TestStreamSurvivesPlannedFaultMix(t *testing.T) {
	content := tinyContent()
	plan := &faults.Plan{
		Seed: 17, Rate: 0.4,
		Kinds:          []faults.Kind{faults.HTTP404, faults.HTTP503, faults.Reset},
		MaxPersistence: 1,
	}
	srv := httptest.NewServer(originserver.New(content, originserver.Options{Faults: plan}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: lowCombo(m)},
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
		Robustness:   fastPolicy(),
	})
	if err != nil {
		t.Fatalf("robust session failed under a 40%% transient fault mix: %v", err)
	}
	if len(rep.Chunks) != content.NumChunks() {
		t.Fatalf("fetched %d chunks, want %d", len(rep.Chunks), content.NumChunks())
	}
	if len(rep.Faults) == 0 || rep.Retries == 0 {
		t.Errorf("fault mix produced faults=%d retries=%d, want both > 0", len(rep.Faults), rep.Retries)
	}
}

// mutatedMPDServer serves a Generate'd MPD after fn edits it, plus faithful
// segments from the inner origin.
func mutatedMPDServer(t *testing.T, content *media.Content, fn func(*dash.MPD)) *httptest.Server {
	t.Helper()
	inner := originserver.New(content, originserver.Options{}).Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		mpd := dash.Generate(content)
		fn(mpd)
		w.Header().Set("Content-Type", "application/dash+xml")
		if err := mpd.Encode(w); err != nil {
			t.Errorf("encode: %v", err)
		}
	})
	mux.Handle("/", inner)
	return httptest.NewServer(mux)
}

func TestFetchManifestHonorsPerSetTemplates(t *testing.T) {
	// Templates that do NOT start with "<type>/" — the old client rewrote
	// the video template with a "video/" -> "$TYPE$/" substitution, which
	// broke any other layout and silently mis-addressed audio segments.
	content := tinyContent()
	srv := mutatedMPDServer(t, content, func(mpd *dash.MPD) {
		sets := mpd.Periods[0].AdaptationSets
		sets[0].SegmentTemplate.Media = "media/v/$RepresentationID$-$Number$.m4s"
		sets[1].SegmentTemplate.Media = "media/a/$RepresentationID$-$Number$.m4s"
	})
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SegmentPath(m.Video[2], 7); got != "media/v/V3-7.m4s" {
		t.Errorf("video segment path = %q", got)
	}
	if got := m.SegmentPath(m.Audio[1], 0); got != "media/a/A2-0.m4s" {
		t.Errorf("audio segment path = %q", got)
	}
}

func TestFetchManifestRejectsUnaddressableTemplate(t *testing.T) {
	content := tinyContent()
	srv := mutatedMPDServer(t, content, func(mpd *dash.MPD) {
		mpd.Periods[0].AdaptationSets[1].SegmentTemplate.Media = "audio/fixed-name.m4s"
	})
	defer srv.Close()
	_, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err == nil || !strings.Contains(err.Error(), "cannot address segments") {
		t.Fatalf("unaddressable template accepted: %v", err)
	}
}

func TestHLSNumChunksIsMinAcrossTracks(t *testing.T) {
	// An encoder cut one track short: only positions every track can serve
	// are playable. The old implementation returned whichever track the map
	// range visited first.
	m := &HLSManifest{segURIs: map[string][]string{
		"V1": {"a", "b", "c", "d", "e"},
		"V2": {"a", "b", "c"},
		"A1": {"a", "b", "c", "d"},
	}}
	for i := 0; i < 20; i++ { // map order is randomized; exercise it
		if got := m.NumChunks(); got != 3 {
			t.Fatalf("NumChunks = %d, want 3 (shortest track)", got)
		}
	}
	if got := (&HLSManifest{segURIs: map[string][]string{}}).NumChunks(); got != 0 {
		t.Fatalf("empty manifest NumChunks = %d", got)
	}
}

// TestFailoverAllExiledPicksCheapest pins the real path's failover when
// every track of the type is exiled: the cheapest track, as in the
// simulator, rather than no candidate at all.
func TestFailoverAllExiledPicksCheapest(t *testing.T) {
	c := tinyContent()
	s := &streamer{src: &Manifest{Video: c.VideoTracks, Audio: c.AudioTracks}, bl: faults.NewBlacklist(), begin: time.Now()}
	pol := faults.Policy{BlacklistAfter: 1, BlacklistFor: time.Hour}
	for _, tr := range c.AudioTracks {
		s.bl.Strike(tr.ID, 0, pol)
	}
	top := c.AudioTracks[len(c.AudioTracks)-1]
	if got := s.failover(top); got != c.AudioTracks[0] {
		t.Fatalf("all audio exiled: failover from %s = %v, want the cheapest, %s", top.ID, got, c.AudioTracks[0].ID)
	}
}

// TestAllTracksDeadFailsInsteadOfLooping: with every audio track gone at
// the origin, failover lands on the cheapest exiled track and the session
// ends with an error once that track fails too.
func TestAllTracksDeadFailsInsteadOfLooping(t *testing.T) {
	content := tinyContent()
	var ids []string
	for _, tr := range content.AudioTracks {
		ids = append(ids, tr.ID)
	}
	plan := &faults.Plan{
		Seed: 4, Rate: 1,
		Kinds:          []faults.Kind{faults.HTTP404},
		Targets:        ids,
		MaxPersistence: -1,
	}
	srv := httptest.NewServer(originserver.New(content, originserver.Options{Faults: plan}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err = Stream(ctx, m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: media.Combo{Video: m.Video[0], Audio: m.Audio[len(m.Audio)-1]}},
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
		MaxChunks:    4,
		Robustness:   fastPolicy(),
	})
	if err == nil {
		t.Fatal("session with every audio track dead reported success")
	}
	if ctx.Err() != nil {
		t.Fatalf("session looped until the deadline: %v", err)
	}
}
