package cdnsim

import (
	"math"
	"math/rand"

	"demuxabr/internal/media"
	"demuxabr/internal/runpool"
)

// Population synthesizes viewer sessions for cache experiments.
type Population struct {
	// Viewers is the session count.
	Viewers int
	// VideoZipf skews video-variant popularity (viewers cluster on a few
	// rungs, e.g. the ABR steady states for common access speeds). 0
	// disables the skew (uniform).
	VideoZipf float64
	// AudioSpread is the number of audio variants in active use (language
	// or quality tiers); viewers are spread uniformly across them.
	AudioSpread int
	// Seed makes the draw reproducible.
	Seed int64
}

// Sessions draws the viewer set for a content asset.
func (p Population) Sessions(c *media.Content) []Session {
	rng := rand.New(rand.NewSource(p.Seed))
	nv := len(c.VideoTracks)
	na := p.AudioSpread
	if na <= 0 || na > len(c.AudioTracks) {
		na = len(c.AudioTracks)
	}
	// Zipf weights over video rungs (rank 1 = most popular = middle rung,
	// then alternating outward: mid-ladder rates dominate real audiences).
	order := rankVideoRungs(nv)
	weights := make([]float64, nv)
	var total float64
	for rank, idx := range order {
		w := 1.0
		if p.VideoZipf > 0 {
			w = 1 / math.Pow(float64(rank+1), p.VideoZipf)
		}
		weights[idx] = w
		total += w
	}
	sessions := make([]Session, p.Viewers)
	for i := range sessions {
		r := rng.Float64() * total
		vi := 0
		for j, w := range weights {
			if r < w {
				vi = j
				break
			}
			r -= w
			vi = j
		}
		ai := rng.Intn(na)
		sessions[i] = Session{Combo: media.Combo{
			Video: c.VideoTracks[vi],
			Audio: c.AudioTracks[ai],
		}}
	}
	return sessions
}

// rankVideoRungs orders rung indexes by plausibility: middle rung first,
// then alternating outward.
func rankVideoRungs(n int) []int {
	mid := n / 2
	order := []int{mid}
	for d := 1; len(order) < n; d++ {
		if mid-d >= 0 {
			order = append(order, mid-d)
		}
		if mid+d < n && len(order) < n {
			order = append(order, mid+d)
		}
	}
	return order
}

// StaggeredWorkload replays sessions that start at different playback
// positions (viewers joining a popular asset at different times): at each
// step every session requests its own next chunk, wrapping at the end. The
// instantaneous working set spans the whole asset, so — unlike the
// lock-step Workload — cache capacity matters.
func StaggeredWorkload(cache *Cache, mode Mode, c *media.Content, sessions []Session, seed int64) Stats {
	rng := rand.New(rand.NewSource(seed))
	n := c.NumChunks()
	offsets := make([]int, len(sessions))
	for i := range offsets {
		offsets[i] = rng.Intn(n)
	}
	plans := planSessions(mode, c, sessions)
	for t := 0; t < n; t++ {
		for i, p := range plans {
			p.request(cache, (offsets[i]+t)%n)
		}
	}
	return cache.Stats()
}

// CacheSweepPoint is one cell of a cache-size sweep.
type CacheSweepPoint struct {
	CacheBytes int64
	Mode       Mode
	Stats      Stats
}

// CacheSweep replays the same staggered population through caches of
// increasing size in both packaging modes — the capacity dimension of the
// §1 cache-hit argument: demuxed objects reach a given hit ratio with far
// less cache. parallel is the worker count (0 = GOMAXPROCS, 1 = serial).
// Every (size, mode) cell replays its own cache and its own session draw
// from the population seed, so the cells are independent jobs; collection
// keeps the serial order (sizes outer, modes inner).
func CacheSweep(c *media.Content, pop Population, sizes []int64, parallel int) []CacheSweepPoint {
	modes := []Mode{Demuxed, Muxed}
	return runpool.Collect(parallel, len(sizes)*len(modes), func(i int) CacheSweepPoint {
		size, mode := sizes[i/len(modes)], modes[i%len(modes)]
		stats := StaggeredWorkload(NewCache(size), mode, c, pop.Sessions(c), pop.Seed)
		return CacheSweepPoint{CacheBytes: size, Mode: mode, Stats: stats}
	})
}
