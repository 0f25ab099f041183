package experiments

import (
	"fmt"
	"time"

	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/trace"
)

// LanguageSwitchResult quantifies the cost of a mid-session audio-language
// change under the two packagings — the §1 motivation made concrete: with
// demuxed tracks only the audio buffer is discarded and refetched; muxed
// packaging throws the video away with it.
type LanguageSwitchResult struct {
	Demuxed Outcome
	Muxed   Outcome
	// DemuxedDiscarded / MuxedDiscarded are the bytes thrown away by the
	// switch in each packaging.
	DemuxedDiscarded int64
	MuxedDiscarded   int64
}

// LanguageSwitch streams the two-language content on a steady 2 Mbps link
// and switches the audio language from English to Spanish at t=120 s.
func LanguageSwitch() (LanguageSwitchResult, error) {
	content := media.MultiLanguageShow()
	const switchAt = 120 * time.Second

	run := func(muxed bool) (Outcome, int64, error) {
		es := media.CombosForLanguage(media.AllCombos(content.VideoTracks, media.LanguageLadder(content.AudioTracks, "es")), "es")
		model := jointabr.New(media.PairCombos(content.VideoTracks, media.LanguageLadder(content.AudioTracks, "en")))
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.Fixed(media.Kbps(2000)))
		// The viewer picks Spanish at switchAt: the model's allowed list
		// changes and the player resets the audio stream. Scheduling the
		// model update before player.Run makes it fire ahead of the
		// session's own reset event at the same instant.
		eng.Schedule(switchAt, func() {
			model.SetAllowed(media.PairCombos(content.VideoTracks, onlyAudioOf(es)))
		})
		cfg := player.Config{
			Content:     content,
			Model:       model,
			AudioResets: []time.Duration{switchAt},
			Muxed:       muxed,
		}
		if !muxed {
			cfg.SyncWindow = 1
		}
		res, err := player.Run(link, cfg)
		o, err := scored(res, err, model, content, nil)
		if err != nil {
			return Outcome{}, 0, fmt.Errorf("language switch (muxed=%v): %w", muxed, err)
		}
		var discarded int64
		for _, r := range res.AudioResets {
			discarded += r.DiscardedBytes
		}
		return o, discarded, nil
	}

	var out LanguageSwitchResult
	var err error
	if out.Demuxed, out.DemuxedDiscarded, err = run(false); err != nil {
		return out, err
	}
	if out.Muxed, out.MuxedDiscarded, err = run(true); err != nil {
		return out, err
	}
	return out, nil
}

// onlyAudioOf extracts the audio ladder from a combination list, preserving
// order and uniqueness.
func onlyAudioOf(combos []media.Combo) media.Ladder {
	var out media.Ladder
	seen := map[string]bool{}
	for _, cb := range combos {
		if !seen[cb.Audio.ID] {
			seen[cb.Audio.ID] = true
			out = append(out, cb.Audio)
		}
	}
	return out
}
