package main

import (
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/cdnsim"
	"demuxabr/internal/media"
)

// epoch anchors nanotime on the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// tracer collects one shard's per-layer counts and host times. Spans are
// recorded from the benchmark's side of each call into the program: the
// engine step loop, the ABR decorator, and the player hooks. A shard runs
// on one goroutine, so a tracer is never shared; shards merge at the end.
//
// Every method is a no-op on a nil tracer, so the untraced runner runs the
// same code with tracing off.
type tracer struct {
	// depth is the span nesting depth: 1 inside an engine step. A span
	// that closes back at depth 1 is a direct child of the step, and its
	// time is subtracted from the step to give netsim's self time.
	depth int

	sessions int64
	cells    int64

	events     int64
	stepNs     int64
	childNs    int64
	pendingMax int

	decideCalls, decideNs     int64
	progressCalls, progressNs int64
	// otherNs is the time in OnStart, OnComplete, Abandon and
	// BandwidthEstimate.
	startCalls, completeCalls   int64
	estimateCalls, abandonCalls int64
	otherNs                     int64

	buildCalls, buildNs int64
	qoeCalls, qoeNs     int64
	accCalls, accNs     int64
	mergeNs             int64

	playerStarts, playerStartNs int64
	requests, played            int64
	abandons, retries           int64
	failovers, faults           int64
	handshakes, holStalls       int64

	edgeCalls, edgeNs int64
	cache             cdnsim.Stats

	sampledSessions, timelineEvents int64

	cellNs []int64
}

// begin opens a span and returns its start time.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	t.depth++
	return nanotime()
}

// end closes the span opened at start, adding its duration to *acc.
func (t *tracer) end(start int64, acc *int64) {
	if t == nil {
		return
	}
	d := nanotime() - start
	*acc += d
	t.depth--
	if t.depth == 1 {
		t.childNs += d
	}
}

// merge folds another shard's tracer into t.
func (t *tracer) merge(o *tracer) {
	t.sessions += o.sessions
	t.cells += o.cells
	t.events += o.events
	t.stepNs += o.stepNs
	t.childNs += o.childNs
	t.pendingMax = max(t.pendingMax, o.pendingMax)
	t.decideCalls += o.decideCalls
	t.decideNs += o.decideNs
	t.progressCalls += o.progressCalls
	t.progressNs += o.progressNs
	t.startCalls += o.startCalls
	t.completeCalls += o.completeCalls
	t.estimateCalls += o.estimateCalls
	t.abandonCalls += o.abandonCalls
	t.otherNs += o.otherNs
	t.buildCalls += o.buildCalls
	t.buildNs += o.buildNs
	t.qoeCalls += o.qoeCalls
	t.qoeNs += o.qoeNs
	t.accCalls += o.accCalls
	t.accNs += o.accNs
	t.mergeNs += o.mergeNs
	t.playerStarts += o.playerStarts
	t.playerStartNs += o.playerStartNs
	t.requests += o.requests
	t.played += o.played
	t.abandons += o.abandons
	t.retries += o.retries
	t.failovers += o.failovers
	t.faults += o.faults
	t.handshakes += o.handshakes
	t.holStalls += o.holStalls
	t.edgeCalls += o.edgeCalls
	t.edgeNs += o.edgeNs
	t.cache = t.cache.Plus(o.cache)
	t.sampledSessions += o.sampledSessions
	t.timelineEvents += o.timelineEvents
	t.cellNs = append(t.cellNs, o.cellNs...)
}

// wrapModel returns a decorator around m that counts and times every call
// the player makes into it. The decorator implements exactly the optional
// interfaces m implements — player.Start type-asserts JointAlgorithm,
// PerTypeAlgorithm, Abandoner and BandwidthReporter, so a decorator that
// dropped one would run a different program.
func wrapModel(m abr.Algorithm, t *tracer) abr.Algorithm {
	base := &tracedModel{inner: m, t: t}
	ab, isAb := m.(abr.Abandoner)
	br, isBr := m.(abr.BandwidthReporter)
	a := tracedAbandoner{ab, t}
	r := tracedReporter{br, t}
	switch dm := m.(type) {
	case abr.JointAlgorithm:
		j := tracedJoint{base, dm}
		switch {
		case isAb && isBr:
			return struct {
				tracedJoint
				tracedAbandoner
				tracedReporter
			}{j, a, r}
		case isAb:
			return struct {
				tracedJoint
				tracedAbandoner
			}{j, a}
		case isBr:
			return struct {
				tracedJoint
				tracedReporter
			}{j, r}
		}
		return j
	case abr.PerTypeAlgorithm:
		p := tracedPerType{base, dm}
		switch {
		case isAb && isBr:
			return struct {
				tracedPerType
				tracedAbandoner
				tracedReporter
			}{p, a, r}
		case isAb:
			return struct {
				tracedPerType
				tracedAbandoner
			}{p, a}
		case isBr:
			return struct {
				tracedPerType
				tracedReporter
			}{p, r}
		}
		return p
	}
	// Neither decision style: player.Start rejects the bare model too.
	return base
}

// tracedModel is the abr.Algorithm (observer) part of the decorator.
type tracedModel struct {
	inner abr.Algorithm
	t     *tracer
}

func (m *tracedModel) Name() string { return m.inner.Name() }

func (m *tracedModel) OnStart(ti abr.TransferInfo) {
	s := m.t.begin()
	m.inner.OnStart(ti)
	m.t.end(s, &m.t.otherNs)
	m.t.startCalls++
}

func (m *tracedModel) OnProgress(ti abr.TransferInfo) {
	s := m.t.begin()
	m.inner.OnProgress(ti)
	m.t.end(s, &m.t.progressNs)
	m.t.progressCalls++
}

func (m *tracedModel) OnComplete(ti abr.TransferInfo) {
	s := m.t.begin()
	m.inner.OnComplete(ti)
	m.t.end(s, &m.t.otherNs)
	m.t.completeCalls++
}

type tracedJoint struct {
	*tracedModel
	j abr.JointAlgorithm
}

func (m tracedJoint) SelectCombo(st abr.State) media.Combo {
	s := m.t.begin()
	c := m.j.SelectCombo(st)
	m.t.end(s, &m.t.decideNs)
	m.t.decideCalls++
	return c
}

type tracedPerType struct {
	*tracedModel
	p abr.PerTypeAlgorithm
}

func (m tracedPerType) SelectTrack(typ media.Type, st abr.State) *media.Track {
	s := m.t.begin()
	tr := m.p.SelectTrack(typ, st)
	m.t.end(s, &m.t.decideNs)
	m.t.decideCalls++
	return tr
}

type tracedAbandoner struct {
	a abr.Abandoner
	t *tracer
}

func (m tracedAbandoner) Abandon(p abr.DownloadProgress) *media.Track {
	s := m.t.begin()
	tr := m.a.Abandon(p)
	m.t.end(s, &m.t.otherNs)
	m.t.abandonCalls++
	return tr
}

type tracedReporter struct {
	r abr.BandwidthReporter
	t *tracer
}

func (m tracedReporter) BandwidthEstimate() (media.Bps, bool) {
	s := m.t.begin()
	bps, ok := m.r.BandwidthEstimate()
	m.t.end(s, &m.t.otherNs)
	m.t.estimateCalls++
	return bps, ok
}
