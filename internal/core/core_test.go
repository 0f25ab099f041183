package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/report"
	"demuxabr/internal/trace"
)

func TestPlayDefaults(t *testing.T) {
	s, err := Play(Spec{Profile: trace.Fixed(media.Kbps(2000))})
	if err != nil {
		t.Fatal(err)
	}
	if s.Model != "bestpractice" {
		t.Errorf("default model = %s", s.Model)
	}
	if !s.Result.Ended {
		t.Error("session did not end")
	}
	if s.Metrics.OffManifest != 0 {
		t.Errorf("best practice selected %d off-manifest chunks", s.Metrics.OffManifest)
	}
	if s.Allowed == nil {
		t.Error("allowed list missing for an HLS-manifest player")
	}
}

func TestPlayRequiresProfile(t *testing.T) {
	if _, err := Play(Spec{}); err == nil {
		t.Error("nil profile should fail")
	}
}

func TestEveryPlayerKindRuns(t *testing.T) {
	for _, kind := range PlayerKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			s, err := Play(Spec{
				Profile: trace.Fixed(media.Kbps(1500)),
				Player:  kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !s.Result.Ended {
				t.Error("session did not end")
			}
			if len(s.Result.Chunks) == 0 {
				t.Error("no chunks downloaded")
			}
		})
	}
}

func TestParsePlayerKind(t *testing.T) {
	if _, err := ParsePlayerKind("exoplayer-dash"); err != nil {
		t.Error(err)
	}
	if _, err := ParsePlayerKind("vlc"); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestBuildModelUnknownKind(t *testing.T) {
	if _, _, err := BuildModel("nope", media.DramaShow(), ManifestOptions{}); err == nil {
		t.Error("unknown kind should fail")
	}
}

// TestParseOnceMatchesBuildModel pins the seam the experiments build
// their models through: for every kind, a model from one Manifests parsed
// for all kinds plays the byte-identical session of a model from
// BuildModel, result and metrics both.
func TestParseOnceMatchesBuildModel(t *testing.T) {
	c := media.DramaShow()
	profile := trace.Fig3VaryingAvg600()
	m, err := ParseManifests(c, ManifestOptions{}, PlayerKinds()...)
	if err != nil {
		t.Fatal(err)
	}
	render := func(s *Session) []byte {
		var buf bytes.Buffer
		if err := report.FromResult(c.Name, s.Result, s.Metrics).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, kind := range PlayerKinds() {
		built, builtAllowed, err := BuildModel(kind, c, ManifestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		shared, sharedAllowed, err := m.Model(kind)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Play(Spec{Content: c, Profile: profile, Model: built, Manifest: ManifestOptions{Combos: builtAllowed}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Play(Spec{Content: c, Profile: profile, Model: shared, Manifest: ManifestOptions{Combos: sharedAllowed}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Metrics, want.Metrics) {
			t.Errorf("%s: parse-once session differs from BuildModel's", kind)
		}
		if !bytes.Equal(render(got), render(want)) {
			t.Errorf("%s: parse-once report differs from BuildModel's", kind)
		}
	}
}

func TestModelNeedsItsManifest(t *testing.T) {
	m, err := ParseManifests(media.DramaShow(), ManifestOptions{}, DashJS)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Model(DashJS); err != nil {
		t.Errorf("dashjs from a parsed MPD: %v", err)
	}
	if _, _, err := m.Model(BestPractice); err == nil {
		t.Error("bestpractice without a parsed master playlist should fail")
	}
	if _, err := ParseManifests(media.DramaShow(), ManifestOptions{}, "nope"); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestManifestOptionsRespected(t *testing.T) {
	c := media.DramaShow()
	// List A3 first: ExoPlayer-HLS must pin it.
	order := []*media.Track{c.AudioTracks[2], c.AudioTracks[1], c.AudioTracks[0]}
	s, err := Play(Spec{
		Content:  c,
		Profile:  trace.Fixed(media.Kbps(2000)),
		Player:   ExoPlayerHLS,
		Manifest: ManifestOptions{AudioOrder: order},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics.AvgAudioBitrate != c.AudioTracks[2].AvgBitrate {
		t.Errorf("avg audio = %v, want pinned A3 (%v)", s.Metrics.AvgAudioBitrate, c.AudioTracks[2].AvgBitrate)
	}
}

func TestBufferOverrides(t *testing.T) {
	s, err := Play(Spec{
		Profile:   trace.Fixed(media.Kbps(5000)),
		Player:    BestPractice,
		MaxBuffer: 12 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	limit := 12*time.Second + media.DramaChunkDuration + time.Second
	for _, sm := range s.Result.Timeline {
		if sm.VideoBuffer > limit {
			t.Fatalf("buffer %v exceeds overridden cap", sm.VideoBuffer)
		}
	}
}

// TestIntegrationMatrix runs every player kind under several network
// conditions and checks the engine invariants: playback ends, the session
// time identity holds, every chunk position is streamed once per type, and
// buffers never exceed the cap.
func TestIntegrationMatrix(t *testing.T) {
	profiles := map[string]trace.Profile{
		"fixed-700k":  trace.Fixed(media.Kbps(700)),
		"fixed-2M":    trace.Fixed(media.Kbps(2000)),
		"bimodal-600": trace.Fig4bBimodal600(),
		"randomwalk":  trace.RandomWalk(9, media.Kbps(400), media.Kbps(2500), 4*time.Second, time.Minute),
	}
	content := media.DramaShow()
	for _, kind := range PlayerKinds() {
		for pname, profile := range profiles {
			kind, pname, profile := kind, pname, profile
			t.Run(string(kind)+"/"+pname, func(t *testing.T) {
				t.Parallel()
				s, err := Play(Spec{Content: content, Profile: profile, Player: kind})
				if err != nil {
					t.Fatal(err)
				}
				res := s.Result
				if !res.Ended {
					t.Fatal("playback did not end")
				}
				want := res.StartupDelay + res.ContentDuration + res.RebufferTime()
				if diff := (res.EndedAt - want).Abs(); diff > time.Millisecond {
					t.Errorf("time identity violated: ended %v, want %v", res.EndedAt, want)
				}
				counts := map[media.Type]map[int]int{media.Video: {}, media.Audio: {}}
				for _, ch := range res.Chunks {
					counts[ch.Type][ch.Index]++
				}
				for typ, m := range counts {
					if len(m) != content.NumChunks() {
						t.Errorf("%s: %d distinct positions, want %d", typ, len(m), content.NumChunks())
					}
				}
				limit := 30*time.Second + content.ChunkDuration + time.Second
				for _, sm := range res.Timeline {
					if sm.VideoBuffer > limit || sm.AudioBuffer > limit {
						t.Fatalf("buffer cap violated at %v: %v/%v", sm.At, sm.VideoBuffer, sm.AudioBuffer)
					}
				}
			})
		}
	}
}
