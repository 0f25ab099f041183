package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/experiments"
	"demuxabr/internal/faults"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/runpool"
	"demuxabr/internal/stats"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// Fleet sizes per unit of work: whole contention cells, enough of them that
// the slowest shard's share evens out and per-seed variation in arrivals
// and cell composition averages away. A live session costs under half a
// VOD one, so the live unit is twice as large to keep repetitions long
// enough to dilute bursts of interference from other tenants.
const (
	vodFleetSessions  = 256
	liveFleetSessions = 512
	// liveTimelineEvery samples one session in 16 for flight recording —
	// one per cell on average.
	liveTimelineEvery = 16
	// liveFaultRate is the injected per-segment fault probability.
	liveFaultRate = 0.02
	// liveAccessRTT is each client's access round trip.
	liveAccessRTT = 50 * time.Millisecond
)

// fleetWorkload is a fleet configuration built from the seed. Every field
// that fleet.Config would default is set here, so the benchmark's own cell
// runner sees the same values fleet.Run does.
type fleetWorkload struct {
	cfg fleet.Config
}

// vodFleetConfig is experiments.FleetAtScale's shape with the seed taken
// from the argument.
func vodFleetConfig(seed int64, n int) fleet.Config {
	return fleet.Config{
		Content:       media.DramaShow(),
		Sessions:      n,
		Mode:          cdnsim.Demuxed,
		Mix:           []core.PlayerKind{core.BestPractice, core.BolaJoint, core.MPCJoint, core.DynamicJoint},
		CacheBytes:    256 << 20,
		UplinkProfile: trace.Fixed(media.Kbps(24_000)),
		AccessProfile: trace.Fixed(media.Kbps(6_000)),
		ArrivalSpread: 30 * time.Second,
		MissPenalty:   60 * time.Millisecond,
		Seed:          seed,
		CellSessions:  experiments.FleetCellSessions,
		MaxRetained:   -1,
	}
}

// liveFleetConfig is the LL trio over HTTP/2 with transport loss, 2%
// injected segment faults of every kind under the default retry policy,
// and sampled flight recorders.
func liveFleetConfig(seed int64, n int) fleet.Config {
	cfg := vodFleetConfig(seed, n)
	cfg.Mix = experiments.LiveModels()
	cfg.Live = experiments.LiveConfig()
	tc := netsim.DefaultTransport(netsim.H2)
	tc.IdleTimeout = experiments.TransportIdleTimeout
	tc.LossRate = experiments.TransportLossRate
	tc.Seed = seed * 7919
	cfg.Transport = &tc
	cfg.AccessRTT = liveAccessRTT
	cfg.FaultPlan = &faults.Plan{
		Seed:  seed * 104729,
		Rate:  liveFaultRate,
		Kinds: append(faults.AllKinds(), faults.TransportKinds()...),
	}
	pol := faults.DefaultPolicy()
	cfg.Robustness = &pol
	cfg.Timeline = true
	cfg.SampleTimelines = liveTimelineEvery
	return cfg
}

func (w *fleetWorkload) sessions() int { return w.cfg.Sessions }

// warmup runs one cell's worth of the fleet through fleet.Run.
func (w *fleetWorkload) warmup() error {
	cfg := w.cfg
	cfg.Sessions = cfg.CellSessions
	cfg.Shards = 1
	_, err := fleet.Run(cfg)
	return err
}

// run executes the fleet through the program's entry point.
func (w *fleetWorkload) run(par int) (unitResult, error) {
	cfg := w.cfg
	cfg.Shards = par
	res, err := fleet.Run(cfg)
	if err != nil {
		return unitResult{}, err
	}
	return unitResult{digest: fleetDigest(res, cfg.Content)}, nil
}

func fleetDigest(res *fleet.Result, c *media.Content) string {
	b, err := json.Marshal(res.Report(c.Name))
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// The helpers below restate fleet.Run's seeded derivations (arrivals, cell
// assignment, per-session fault and transport seeds, the reservoir size) so
// the benchmark can drive the cells itself. The digest comparison against
// fleet.Run proves they still agree.

const sampledRows = 64

func (w *fleetWorkload) arrivals() []time.Duration {
	c := &w.cfg
	at := make([]time.Duration, c.Sessions)
	rng := rand.New(rand.NewSource(c.Seed))
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(c.ArrivalSpread)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

func (w *fleetWorkload) cells() [][]int {
	n, size := w.cfg.Sessions, w.cfg.CellSessions
	perm := rand.New(rand.NewSource(w.cfg.Seed ^ 0x5eed_ce11)).Perm(n)
	var cells [][]int
	for lo := 0; lo < n; lo += size {
		cell := perm[lo:min(lo+size, n)]
		sort.Ints(cell)
		cells = append(cells, cell)
	}
	return cells
}

func (w *fleetWorkload) sessionPlan(id int) *faults.Plan {
	if w.cfg.FaultPlan == nil {
		return nil
	}
	plan := *w.cfg.FaultPlan
	plan.Seed = w.cfg.FaultPlan.Seed + int64(id+1)*1_000_003
	return &plan
}

func (w *fleetWorkload) sessionTransport(id int) *netsim.TransportConfig {
	if w.cfg.Transport == nil {
		return nil
	}
	tc := *w.cfg.Transport
	tc.Seed = w.cfg.Transport.Seed + w.cfg.Seed + int64(id+1)*1_000_003
	return &tc
}

func (w *fleetWorkload) sampled(id int) bool {
	k := w.cfg.SampleTimelines
	if k <= 1 {
		return true
	}
	return id%k == int(((w.cfg.Seed%int64(k))+int64(k))%int64(k))
}

// shardAgg is one shard's streaming aggregate.
type shardAgg struct {
	acc       *qoe.FleetAccumulator
	reservoir *stats.Reservoir[fleet.SessionSample]
	jain      []cellJain
	completed int
	cache     cdnsim.Stats
	recs      []*timeline.Recorder
	upRecs    []*timeline.Recorder
	tr        *tracer
}

type cellJain struct {
	cell    int
	partial qoe.JainPartial
}

// replay runs the fleet through the benchmark's own cell runner, built from
// the program's public constructors, on par shard goroutines. With traced
// set it records per-layer counts and times and returns the merged tracer.
func (w *fleetWorkload) replay(par int, traced bool) (string, *tracer, error) {
	arrive := w.arrivals()
	cells := w.cells()
	shards := min(par, len(cells))
	aggs, err := runpool.Map(shards, shards, func(sh int) (*shardAgg, error) {
		agg := &shardAgg{
			acc:       qoe.NewFleetAccumulator(),
			reservoir: stats.NewReservoir[fleet.SessionSample](sampledRows, w.cfg.Seed),
		}
		if traced {
			agg.tr = &tracer{}
		}
		for ci := sh; ci < len(cells); ci += shards {
			if err := w.driveCell(ci, len(cells), cells[ci], arrive, agg); err != nil {
				return nil, err
			}
		}
		return agg, nil
	})
	if err != nil {
		return "", nil, err
	}
	var tr *tracer
	if traced {
		tr = &tracer{}
		for _, a := range aggs {
			tr.merge(a.tr)
		}
	}
	start := nanotime()
	res := w.merge(len(cells), aggs)
	if tr != nil {
		tr.mergeNs = nanotime() - start
	}
	return fleetDigest(res, w.cfg.Content), tr, nil
}

// merge folds the shard aggregates as fleet.Run's streaming path does.
func (w *fleetWorkload) merge(numCells int, aggs []*shardAgg) *fleet.Result {
	res := &fleet.Result{Mode: w.cfg.Mode, Streamed: true, Cells: numCells}
	acc := qoe.NewFleetAccumulator()
	reservoir := stats.NewReservoir[fleet.SessionSample](sampledRows, w.cfg.Seed)
	var jains []cellJain
	var recs, upRecs []*timeline.Recorder
	for _, a := range aggs {
		res.Completed += a.completed
		res.Cache = res.Cache.Plus(a.cache)
		acc.Merge(a.acc)
		reservoir.Merge(a.reservoir)
		jains = append(jains, a.jain...)
		recs = append(recs, a.recs...)
		upRecs = append(upRecs, a.upRecs...)
	}
	sort.Slice(jains, func(i, j int) bool { return jains[i].cell < jains[j].cell })
	var jain qoe.JainPartial
	for _, cj := range jains {
		jain = jain.Plus(cj.partial)
	}
	res.Fleet = acc.FleetMetrics(jain.Index())
	res.CompletedScore = acc.ScoreCompleted.Summary()
	res.Sampled = reservoir.Items()
	if w.cfg.Timeline {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Session() < recs[j].Session() })
		sort.Slice(upRecs, func(i, j int) bool { return upRecs[i].Session() < upRecs[j].Session() })
		res.Recorders = append(recs, upRecs...)
	}
	return res
}

// driveCell simulates one contention cell from public constructors and
// steps its engine from the benchmark's own loop.
func (w *fleetWorkload) driveCell(cellIdx, numCells int, ids []int, arrive []time.Duration, agg *shardAgg) error {
	cfg := &w.cfg
	tr := agg.tr
	cellStart := nanotime()
	eng := netsim.NewEngine()
	up := netsim.NewUplink(eng, cfg.UplinkProfile)
	edge := cdnsim.NewEdge(cdnsim.NewCache(cfg.CacheBytes), cfg.Mode, cfg.Content, len(ids))
	budget := 20_000_000 + 2_000_000*len(ids)
	var jainCur qoe.JainPartial

	var recs []*timeline.Recorder
	var upRec *timeline.Recorder
	if cfg.Timeline {
		anySampled := false
		recs = make([]*timeline.Recorder, len(ids))
		for li, id := range ids {
			if w.sampled(id) {
				recs[li] = timeline.New(id, fmt.Sprintf("s%d %s", id, cfg.Mix[id%len(cfg.Mix)]))
				anySampled = true
			}
		}
		if anySampled {
			label := "uplink"
			if numCells > 1 {
				label = fmt.Sprintf("uplink-c%d", cellIdx)
			}
			upRec = timeline.New(cfg.Sessions+cellIdx, label)
			up.SetRecorder(upRec, label)
		}
		edge.Observer = func(session int, key string, size int64, hit bool) {
			rec := recs[session]
			if rec == nil {
				return
			}
			kind := timeline.CacheMiss
			if hit {
				kind = timeline.CacheHit
			}
			rec.Emit(timeline.Event{At: eng.Now(), Kind: kind, Index: -1, Detail: key, Bytes: size})
		}
	}

	finished := make([]bool, len(ids))
	errs := make([]error, len(ids))
	for li, id := range ids {
		li, id := li, id
		kind := cfg.Mix[id%len(cfg.Mix)]
		s := tr.begin()
		model, combos, err := core.BuildModel(kind, cfg.Content, cfg.Manifest)
		if err != nil {
			return fmt.Errorf("session %d (%s): %w", id, kind, err)
		}
		if tr != nil {
			tr.end(s, &tr.buildNs)
			tr.buildCalls++
			model = wrapModel(model, tr)
		}
		leaf := up.NewLeaf(cfg.AccessProfile)
		leaf.RTT = cfg.AccessRTT
		var rec *timeline.Recorder
		if recs != nil {
			rec = recs[li]
		}
		plan := w.sessionPlan(id)
		if plan != nil && tr != nil && rec == nil {
			// A recording session swaps in its own observer; its faults
			// are counted from the recorder instead.
			plan.Observe = func(string, int, int, faults.Fault) { tr.faults++ }
		}
		pcfg := player.Config{
			Content:    cfg.Content,
			Model:      model,
			Muxed:      cfg.Mode == cdnsim.Muxed,
			MaxBuffer:  cfg.MaxBuffer,
			Deadline:   cfg.Deadline,
			MaxEvents:  budget,
			FaultPlan:  plan,
			Robustness: cfg.Robustness,
			Transport:  w.sessionTransport(id),
			Live:       cfg.Live,
			Recorder:   rec,
			OnRequest: func(req player.ChunkRequest) time.Duration {
				s := tr.begin()
				var hit bool
				if req.MuxedWith != nil {
					hit = edge.RequestMuxed(li, req.Track, req.MuxedWith, req.Index)
				} else {
					hit = edge.RequestTrack(li, req.Track, req.Index)
				}
				if tr != nil {
					tr.end(s, &tr.edgeNs)
					tr.edgeCalls++
					tr.requests++
				}
				if hit {
					return 0
				}
				return cfg.MissPenalty
			},
			OnDone: func(ps *player.Session) {
				finished[li] = true
				r := ps.Result()
				s := tr.begin()
				m := qoe.Compute(r, cfg.Content, combos, qoe.DefaultWeights())
				if tr != nil {
					tr.end(s, &tr.qoeNs)
					tr.qoeCalls++
				}
				s = tr.begin()
				if r.Ended {
					agg.completed++
				}
				agg.acc.Add(m, r.Ended)
				jainCur.Observe(m.AvgVideoBitrate.Kbps())
				agg.reservoir.Add(id, fleet.SessionSample{
					ID: id, Kind: kind, Arrival: arrive[id], Ended: r.Ended,
					Metrics: m, Cache: edge.SessionStats(li),
				})
				if tr != nil {
					tr.end(s, &tr.accNs)
					tr.accCalls++
					tr.observeSession(r, rec)
				}
			},
		}
		eng.Schedule(arrive[id], func() {
			s := tr.begin()
			_, err := player.Start(leaf, leaf, pcfg)
			if tr != nil {
				tr.end(s, &tr.playerStartNs)
				tr.playerStarts++
			}
			if err != nil {
				errs[li] = err
			}
		})
	}

	if err := step(eng, budget, tr); err != nil {
		return err
	}
	for li, err := range errs {
		if err != nil {
			return fmt.Errorf("session %d: %w", ids[li], err)
		}
	}
	for li := range ids {
		if !finished[li] {
			return fmt.Errorf("session %d never finished", ids[li])
		}
	}
	cache := edge.Aggregate()
	agg.cache = agg.cache.Plus(cache)
	agg.jain = append(agg.jain, cellJain{cell: cellIdx, partial: jainCur})
	for _, rec := range recs {
		if rec != nil {
			agg.recs = append(agg.recs, rec)
		}
	}
	if upRec != nil {
		agg.upRecs = append(agg.upRecs, upRec)
	}
	if tr != nil {
		tr.cells++
		tr.cache = tr.cache.Plus(cache)
		tr.cellNs = append(tr.cellNs, nanotime()-cellStart)
	}
	return nil
}

// step fires engine events until none remain, with netsim.Engine.Run's
// budget semantics. Traced, it counts events, samples queue depth, and
// times the loop as one span (a clock read per event would double the
// tracing cost); spans of calls made from inside the steps are its
// children.
func step(eng *netsim.Engine, budget int, tr *tracer) error {
	if tr != nil {
		tr.depth = 1
		start := nanotime()
		defer func() {
			tr.stepNs += nanotime() - start
			tr.depth = 0
		}()
	}
	for i := 0; i < budget; i++ {
		if tr != nil {
			tr.pendingMax = max(tr.pendingMax, eng.Pending())
		}
		if !eng.Step() {
			return nil
		}
		if tr != nil {
			tr.events++
		}
	}
	return fmt.Errorf("event budget %d exhausted at t=%v", budget, eng.Now())
}

// observeSession adds one finished session's player, fault and transport
// outcomes.
func (t *tracer) observeSession(r *player.Result, rec *timeline.Recorder) {
	t.sessions++
	t.played += int64(len(r.Chunks))
	t.abandons += int64(len(r.Abandonments))
	t.retries += int64(r.Retries)
	t.failovers += int64(len(r.Failovers))
	if r.Transport != nil {
		t.handshakes += int64(r.Transport.Handshakes + r.Transport.Resumes)
		t.holStalls += int64(r.Transport.HoLStalls)
	}
	if rec != nil {
		t.sampledSessions++
		t.timelineEvents += int64(len(rec.Events()))
		t.faults += rec.Counters().Faults
	}
}
