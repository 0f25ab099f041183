package cdnsim

import (
	"fmt"
	"testing"
	"testing/quick"

	"demuxabr/internal/faults"
	"demuxabr/internal/media"
)

func TestLRUBasics(t *testing.T) {
	c := NewCache(100)
	if hit := c.Request(Object{Key: "a", Size: 40}); hit {
		t.Error("first request must miss")
	}
	if hit := c.Request(Object{Key: "a", Size: 40}); !hit {
		t.Error("second request must hit")
	}
	c.Request(Object{Key: "b", Size: 40})
	c.Request(Object{Key: "c", Size: 40}) // evicts "a" (LRU after refresh? no: a was refreshed, b is LRU)
	if c.Used() > 100 {
		t.Errorf("used %d exceeds capacity", c.Used())
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("expected an eviction")
	}
}

func TestLRURecency(t *testing.T) {
	c := NewCache(100)
	c.Request(Object{Key: "a", Size: 50})
	c.Request(Object{Key: "b", Size: 50})
	c.Request(Object{Key: "a", Size: 50}) // refresh a; b becomes LRU
	c.Request(Object{Key: "c", Size: 50}) // evicts b
	if !c.Request(Object{Key: "a", Size: 50}) {
		t.Error("a should still be cached")
	}
	if c.Request(Object{Key: "b", Size: 50}) {
		t.Error("b should have been evicted")
	}
}

func TestOversizedObjectUncached(t *testing.T) {
	c := NewCache(100)
	c.Request(Object{Key: "big", Size: 500})
	if c.Used() != 0 {
		t.Errorf("oversized object cached: used=%d", c.Used())
	}
	if c.Request(Object{Key: "big", Size: 500}) {
		t.Error("oversized object must never hit")
	}
}

func TestCapacityInvariantProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		c := NewCache(1000)
		for _, k := range keys {
			c.Request(Object{Key: fmt.Sprintf("k%d", k%32), Size: int64(k%200) + 1})
			if c.Used() > 1000 {
				return false
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Requests
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOriginStorageMuxedVsDemuxed(t *testing.T) {
	// §1: M+N tracks demuxed vs M×N combinations muxed.
	c := media.DramaShow()
	demuxed := OriginStorage(c, Demuxed, nil)
	muxed := OriginStorage(c, Muxed, media.HAll(c))
	if muxed <= demuxed {
		t.Fatalf("muxed storage %d should exceed demuxed %d", muxed, demuxed)
	}
	// Exact relationship: muxed H_all stores each video 3x (N audio
	// variants) and each audio 6x (M video variants).
	var videoBytes, audioBytes int64
	for _, tr := range c.VideoTracks {
		videoBytes += c.TrackBytes(tr)
	}
	for _, tr := range c.AudioTracks {
		audioBytes += c.TrackBytes(tr)
	}
	wantMuxed := 3*videoBytes + 6*audioBytes
	if muxed != wantMuxed {
		t.Errorf("muxed storage = %d, want %d", muxed, wantMuxed)
	}
	if demuxed != videoBytes+audioBytes {
		t.Errorf("demuxed storage = %d, want %d", demuxed, videoBytes+audioBytes)
	}
}

func TestCacheHitAdvantageOfDemuxed(t *testing.T) {
	// The §1 scenario: user A watches V1+A2, user B later watches V1+A1.
	// Demuxed: B hits the cache for every V1 chunk. Muxed: B misses all.
	content := media.DramaShow()
	v1 := content.VideoTracks[0]
	a1, a2 := content.AudioTracks[0], content.AudioTracks[1]
	sessions := []Session{
		{Combo: media.Combo{Video: v1, Audio: a2}},
		{Combo: media.Combo{Video: v1, Audio: a1}},
	}
	const cap = 1 << 30 // ample: isolate the sharing effect
	demuxed := Workload(NewCache(cap), Demuxed, content, sessions)
	muxed := Workload(NewCache(cap), Muxed, content, sessions)
	if demuxed.HitRatio() <= muxed.HitRatio() {
		t.Errorf("demuxed hit ratio %.2f <= muxed %.2f", demuxed.HitRatio(), muxed.HitRatio())
	}
	if muxed.Hits != 0 {
		t.Errorf("muxed hits = %d, want 0 (all distinct objects)", muxed.Hits)
	}
	// Demuxed: per chunk, 4 requests (2 users x 2 tracks), 1 hit (B's V1).
	wantHits := int64(content.NumChunks())
	if demuxed.Hits != wantHits {
		t.Errorf("demuxed hits = %d, want %d", demuxed.Hits, wantHits)
	}
	// Demuxed also moves fewer origin bytes.
	if demuxed.BytesOrigin >= muxed.BytesOrigin {
		t.Errorf("demuxed origin bytes %d >= muxed %d", demuxed.BytesOrigin, muxed.BytesOrigin)
	}
}

func TestWorkloadManyViewers(t *testing.T) {
	// Many viewers across all H_sub combos: demuxed keeps a strictly
	// higher byte hit ratio.
	content := media.DramaShow()
	var sessions []Session
	for i, cb := range media.HSub(content) {
		for j := 0; j <= i%3; j++ {
			sessions = append(sessions, Session{Combo: cb})
		}
	}
	const cap = 1 << 30
	demuxed := Workload(NewCache(cap), Demuxed, content, sessions)
	muxed := Workload(NewCache(cap), Muxed, content, sessions)
	if demuxed.ByteHitRatio() < muxed.ByteHitRatio() {
		t.Errorf("demuxed byte hit ratio %.3f < muxed %.3f", demuxed.ByteHitRatio(), muxed.ByteHitRatio())
	}
}

func TestNewCacheRejectsBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive capacity should panic")
		}
	}()
	NewCache(0)
}

func TestModeString(t *testing.T) {
	if Demuxed.String() != "demuxed" || Muxed.String() != "muxed" {
		t.Errorf("mode strings wrong: %s/%s", Demuxed, Muxed)
	}
}

func TestPopulationDeterministicAndBounded(t *testing.T) {
	c := media.DramaShow()
	pop := Population{Viewers: 50, VideoZipf: 1.2, AudioSpread: 3, Seed: 7}
	a := pop.Sessions(c)
	b := pop.Sessions(c)
	if len(a) != 50 {
		t.Fatalf("sessions = %d", len(a))
	}
	for i := range a {
		if a[i].Combo.String() != b[i].Combo.String() {
			t.Fatal("population not deterministic")
		}
		if a[i].Combo.Video == nil || a[i].Combo.Audio == nil {
			t.Fatal("incomplete combo")
		}
	}
}

func TestPopulationZipfSkew(t *testing.T) {
	c := media.DramaShow()
	skewed := Population{Viewers: 2000, VideoZipf: 1.5, Seed: 1}.Sessions(c)
	counts := map[string]int{}
	for _, s := range skewed {
		counts[s.Combo.Video.ID]++
	}
	// The top rung by popularity must dominate the least popular by a wide
	// margin under Zipf 1.5.
	max, min := 0, len(skewed)
	for _, id := range []string{"V1", "V2", "V3", "V4", "V5", "V6"} {
		n := counts[id]
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	if max < 4*min {
		t.Errorf("zipf skew too flat: max=%d min=%d (%v)", max, min, counts)
	}
}

func TestRankVideoRungs(t *testing.T) {
	got := rankVideoRungs(6)
	if len(got) != 6 || got[0] != 3 {
		t.Errorf("order = %v", got)
	}
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatalf("duplicate rung %d in %v", i, got)
		}
		seen[i] = true
	}
	if got := rankVideoRungs(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("single rung order = %v", got)
	}
}

func TestCacheSweepDemuxedDominates(t *testing.T) {
	c := media.DramaShow()
	pop := Population{Viewers: 30, VideoZipf: 1.2, AudioSpread: 3, Seed: 3}
	sizes := []int64{64 << 20, 256 << 20, 1 << 30}
	points := CacheSweep(c, pop, sizes, 0)
	if len(points) != len(sizes)*2 {
		t.Fatalf("points = %d", len(points))
	}
	byKey := map[string]Stats{}
	for _, p := range points {
		byKey[fmt.Sprintf("%d/%s", p.CacheBytes, p.Mode)] = p.Stats
	}
	for _, size := range sizes {
		d := byKey[fmt.Sprintf("%d/demuxed", size)]
		m := byKey[fmt.Sprintf("%d/muxed", size)]
		if d.ByteHitRatio() < m.ByteHitRatio() {
			t.Errorf("cache %d MB: demuxed byte hit %.3f < muxed %.3f",
				size>>20, d.ByteHitRatio(), m.ByteHitRatio())
		}
	}
	// Hit ratios must be non-decreasing in cache size for each mode.
	for _, mode := range []Mode{Demuxed, Muxed} {
		prev := -1.0
		for _, size := range sizes {
			hr := byKey[fmt.Sprintf("%d/%s", size, mode)].HitRatio()
			if hr+1e-9 < prev {
				t.Errorf("%s: hit ratio decreased with cache size (%f -> %f)", mode, prev, hr)
			}
			prev = hr
		}
	}
}

func TestContains(t *testing.T) {
	c := NewCache(100)
	if c.Contains("a") {
		t.Error("empty cache contains a")
	}
	c.Request(Object{Key: "a", Size: 40})
	before := c.Stats()
	if !c.Contains("a") {
		t.Error("cached object not reported by Contains")
	}
	if got := c.Stats(); got != before {
		t.Errorf("Contains mutated stats: %+v vs %+v", got, before)
	}
}

func TestRequestFaultyNilPlanMatchesRequest(t *testing.T) {
	plain, faulty := NewCache(200), NewCache(200)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i%4)
		plain.Request(Object{Key: key, Size: 30})
		hit, served := faulty.RequestFaulty(Object{Key: key, Size: 30}, key, i, nil)
		if !served {
			t.Fatalf("nil plan failed request %d", i)
		}
		_ = hit
	}
	if plain.Stats() != faulty.Stats() {
		t.Errorf("nil-plan RequestFaulty diverged from Request:\n%+v\n%+v", plain.Stats(), faulty.Stats())
	}
}

func TestRequestFaultyTransientRetriesAndHitsShield(t *testing.T) {
	// Rate 1 with persistence 1: every first origin fetch fails, every
	// retry succeeds — so the edge serves everything, at the cost of one
	// origin error per distinct object.
	plan := &faults.Plan{Seed: 9, Rate: 1, Kinds: []faults.Kind{faults.HTTP503}, MaxPersistence: 1}
	c := NewCache(1 << 20)
	for round := 0; round < 3; round++ {
		hit, served := c.RequestFaulty(Object{Key: "v/0", Size: 100}, "V1", 0, plan)
		if !served {
			t.Fatalf("round %d: transient fault not absorbed by retry", round)
		}
		if round > 0 && !hit {
			t.Fatalf("round %d: cached object should hit without touching the origin", round)
		}
	}
	st := c.Stats()
	if st.OriginErrors != 1 {
		t.Errorf("OriginErrors = %d, want 1 (one failed first fetch, then cached)", st.OriginErrors)
	}
	if st.FailedRequests != 0 {
		t.Errorf("FailedRequests = %d, want 0", st.FailedRequests)
	}
}

func TestRequestFaultyPermanentFaultFailsRequest(t *testing.T) {
	plan := &faults.Plan{Seed: 9, Rate: 1, Kinds: []faults.Kind{faults.HTTP503}, MaxPersistence: -1}
	c := NewCache(1 << 20)
	hit, served := c.RequestFaulty(Object{Key: "v/0", Size: 100}, "V1", 0, plan)
	if hit || served {
		t.Fatalf("permanent origin fault served the object: hit=%v served=%v", hit, served)
	}
	st := c.Stats()
	if st.FailedRequests != 1 {
		t.Errorf("FailedRequests = %d, want 1", st.FailedRequests)
	}
	if st.OriginErrors != 2 {
		t.Errorf("OriginErrors = %d, want 2 (fetch + one retry)", st.OriginErrors)
	}
	if c.Contains("v/0") {
		t.Error("unserved object must not be cached")
	}
	if st.BytesServed != 0 {
		t.Errorf("BytesServed = %d for an unserved request", st.BytesServed)
	}
}

func TestWorkloadFaultyDemuxedSharesFaultExposure(t *testing.T) {
	content := media.DramaShow()
	combos := media.HSub(content)
	sessions := []Session{}
	for i := 0; i < 6; i++ {
		sessions = append(sessions, Session{Combo: combos[i%len(combos)]})
	}
	plan := &faults.Plan{Seed: 21, Rate: 0.3, Kinds: []faults.Kind{faults.HTTP503}, MaxPersistence: 1}

	run := func(mode Mode) Stats {
		return WorkloadFaulty(NewCache(1<<30), mode, content, sessions, plan)
	}
	demuxed, muxed := run(Demuxed), run(Muxed)
	if demuxed.FailedRequests != 0 {
		t.Errorf("transient faults (persistence 1 < 2 tries) failed %d demuxed requests", demuxed.FailedRequests)
	}
	if muxed.FailedRequests != 0 {
		t.Errorf("transient faults failed %d muxed requests", muxed.FailedRequests)
	}
	if demuxed.OriginErrors == 0 {
		t.Fatal("30% fault rate produced no origin errors")
	}
	// Determinism: a second identical run must be byte-identical.
	if again := run(Demuxed); again != demuxed {
		t.Errorf("faulty workload not deterministic:\n%+v\n%+v", again, demuxed)
	}
}
