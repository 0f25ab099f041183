package cdnsim

import (
	"testing"

	"demuxabr/internal/media"
)

// TestPlannedWorkloadMatchesRequestChunk: the precomputed request plans
// must replay exactly the same key/size sequence as the per-request
// RequestChunk path, in both packaging modes.
func TestPlannedWorkloadMatchesRequestChunk(t *testing.T) {
	content := media.DramaShow()
	sessions := []Session{
		{Combo: media.Combo{Video: content.VideoTracks[0], Audio: content.AudioTracks[1]}},
		{Combo: media.Combo{Video: content.VideoTracks[0], Audio: content.AudioTracks[0]}},
		{Combo: media.Combo{Video: content.VideoTracks[3], Audio: content.AudioTracks[1]}},
	}
	for _, mode := range []Mode{Demuxed, Muxed} {
		const capBytes = 64 << 20
		planned := Workload(NewCache(capBytes), mode, content, sessions)
		reference := NewCache(capBytes)
		n := content.NumChunks()
		for idx := 0; idx < n; idx++ {
			for _, s := range sessions {
				RequestChunk(reference, mode, content, s.Combo, idx)
			}
		}
		if planned != reference.Stats() {
			t.Errorf("%s: planned workload stats %+v != per-request stats %+v", mode, planned, reference.Stats())
		}
	}
}

// TestWorkloadSteadyStateAllocs bounds the cache sweep's hot path: with
// the plans built, replaying a chunk position for every session must not
// allocate on cache hits. Before the key tables every request Sprintf'd
// its keys (~3 allocations per request).
func TestWorkloadSteadyStateAllocs(t *testing.T) {
	content := media.DramaShow()
	sessions := []Session{
		{Combo: media.Combo{Video: content.VideoTracks[0], Audio: content.AudioTracks[1]}},
		{Combo: media.Combo{Video: content.VideoTracks[2], Audio: content.AudioTracks[0]}},
	}
	for _, mode := range []Mode{Demuxed, Muxed} {
		cache := NewCache(1 << 30)
		plans := planSessions(mode, content, sessions)
		// Warm: first pass misses and inserts; afterwards every request hits.
		for _, p := range plans {
			p.request(cache, 0)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, p := range plans {
				p.request(cache, 0)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: hit path allocates %.2f objects per position, want 0 (request plan regressed)", mode, allocs)
		}
	}
}

// TestCacheSweepParallelMatchesSerial: the fan-out must reproduce the
// serial sweep cell-for-cell.
func TestCacheSweepParallelMatchesSerial(t *testing.T) {
	content := media.DramaShow()
	pop := Population{Viewers: 24, VideoZipf: 1.2, AudioSpread: 3, Seed: 11}
	sizes := []int64{16 << 20, 64 << 20}
	serial := CacheSweep(content, pop, sizes, 1)
	parallel := CacheSweep(content, pop, sizes, 0)
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d points, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("point %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}
