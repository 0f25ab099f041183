package netsim

import (
	"math"
	"time"

	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// Uplink is the shared second tier of a two-tier topology: several access
// links (one per client) funnel into one edge uplink, so a transfer's
// throughput is bounded both by its weighted share of its own access link
// and by the fleet-wide weighted share of the uplink. Rates follow
// weighted max-min fairness via progressive filling — the steady state of
// many long-lived TCP flows crossing a shared aggregation link.
//
// Attached leaves advance and reschedule as one group: the engine sees a
// single wake event covering the earliest completion or capacity
// breakpoint anywhere in the tree.
type Uplink struct {
	eng     *Engine
	profile trace.Profile
	members []*Link

	lastUpdate time.Duration
	wake       *Event
	wakeFn     func() // onWake, bound once so rearming allocates nothing

	// gen counts changes to the flows alloc sees: every edit of a member's
	// active set (see Link.invalidateRates), every new member and outage.
	gen uint64

	// flat lists every active transfer in member order, and leafOf[k] is
	// the index in members of flat[k]'s leaf. sync rebuilds both when gen
	// has moved past flatGen.
	flat    []*Transfer
	leafOf  []int
	flatGen uint64

	// rates holds the allocation computed for generation memoGen, valid at
	// every instant of [memoFrom, memoUntil): memoUntil is the earliest
	// capacity breakpoint of the uplink and of each loaded member after
	// memoFrom (MaxInt64 if none).
	memoGen             uint64
	memoFrom, memoUntil time.Duration

	// Allocator scratch, reused across recomputes so steady-state event
	// handling allocates nothing.
	rates  []float64
	frozen []bool
	weight []float64
	remain []float64
	sat    []bool

	// observed lists the members with a flight recorder attached, in
	// member order (see Link.SetRecorder).
	observed []*Link

	// rec, when non-nil, receives a LinkRate event each time the observed
	// uplink capacity changes while the group is being integrated.
	rec      *timeline.Recorder
	recLabel string
	lastRate float64
	rateSeen bool
}

// NewUplink creates the shared uplink constraint with the given capacity
// profile. Access leaves join via NewLeaf.
func NewUplink(eng *Engine, profile trace.Profile) *Uplink {
	if profile == nil {
		panic("netsim: nil uplink profile")
	}
	u := &Uplink{eng: eng, profile: profile}
	u.wakeFn = u.onWake
	return u
}

// Engine returns the engine driving this uplink.
func (u *Uplink) Engine() *Engine { return u.eng }

// Members returns the number of attached access leaves.
func (u *Uplink) Members() int { return len(u.members) }

// NewLeaf creates an access link behind this uplink: transfers started on
// it obey the leaf profile, the shared uplink, and weighted fairness
// against every other transfer in the tree.
func (u *Uplink) NewLeaf(profile trace.Profile) *Link {
	l := NewLink(u.eng, profile)
	l.up = u
	u.members = append(u.members, l)
	u.gen++
	return l
}

// sync rebuilds the flat active list if the flows changed since it was
// last built.
func (u *Uplink) sync() {
	if u.flatGen == u.gen {
		return
	}
	u.flatGen = u.gen
	clear(u.flat)
	u.flat, u.leafOf = u.flat[:0], u.leafOf[:0]
	for i, l := range u.members {
		for _, tr := range l.active {
			u.flat = append(u.flat, tr)
			u.leafOf = append(u.leafOf, i)
		}
	}
}

// alloc computes the weighted max-min rate (bits/s) of every active
// transfer at time t, indexed like u.flat. Constraint 0 is the uplink;
// constraint 1+i is member i. Progressive filling: raise every unfrozen
// transfer's per-weight rate in lockstep until some constraint saturates,
// freeze that constraint's transfers at the fill level, and repeat with
// the remaining capacity. Every transfer loads the uplink constraint, so
// the fill level is always finite, and each round freezes at least one
// transfer — the loop runs at most len(members)+1 rounds.
//
// The result depends only on the flows (each member's active set, in
// order, with its weights) and on the capacities of the uplink and of the
// loaded members: an unloaded member has weight 0 and never binds. So it
// is memoized on the generation and a validity window: every profile is
// constant on [t, NextChange(t)), so until the earliest breakpoint of
// those capacities the same fill would give the same floats. Between two
// wakes that is every progress sample.
func (u *Uplink) alloc(t time.Duration) []float64 {
	u.sync()
	if u.memoGen == u.gen && t >= u.memoFrom && t < u.memoUntil {
		return u.rates
	}
	nc := len(u.members) + 1
	u.remain = growF(u.remain, nc)
	u.remain[0] = float64(u.profile.RateAt(t))
	until := time.Duration(math.MaxInt64)
	if bp, ok := u.profile.NextChange(t); ok {
		until = bp
	}
	for i, l := range u.members {
		u.remain[1+i] = l.rateAt(t)
		if len(l.active) > 0 {
			if bp, ok := l.nextChange(t); ok && bp < until {
				until = bp
			}
		}
	}
	u.memoGen, u.memoFrom, u.memoUntil = u.gen, t, until
	total := len(u.flat)
	u.rates = growF(u.rates, total)
	u.frozen = growB(u.frozen, total)
	u.weight = growF(u.weight, nc)
	u.sat = growB(u.sat, nc)
	for i := range u.rates {
		u.rates[i] = 0
		u.frozen[i] = false
	}
	for {
		for c := range u.weight {
			u.weight[c] = 0
		}
		unfrozen := 0
		for k, tr := range u.flat {
			if !u.frozen[k] {
				unfrozen++
				u.weight[0] += tr.weight
				u.weight[1+u.leafOf[k]] += tr.weight
			}
		}
		if unfrozen == 0 {
			return u.rates
		}
		// Fill level: the tightest per-weight capacity among loaded
		// constraints. The uplink carries every unfrozen transfer, so the
		// minimum exists.
		fill := math.Inf(1)
		for c := range u.remain {
			if u.weight[c] > 0 {
				if r := u.remain[c] / u.weight[c]; r < fill {
					fill = r
				}
			}
		}
		if fill < 0 {
			fill = 0
		}
		// Snapshot which constraints saturate at this fill level before
		// mutating remaining capacity. The ratio comparison is exact for the
		// arg-min (same division that produced fill) and catches ties.
		for c := range u.remain {
			u.sat[c] = u.weight[c] > 0 && u.remain[c]/u.weight[c] <= fill
		}
		for k, tr := range u.flat {
			c := 1 + u.leafOf[k]
			if !u.frozen[k] && (u.sat[0] || u.sat[c]) {
				r := fill * tr.weight
				u.rates[k] = r
				u.frozen[k] = true
				u.remain[0] -= r
				u.remain[c] -= r
			}
		}
		for c := range u.remain {
			if u.remain[c] < 0 {
				u.remain[c] = 0
			}
		}
	}
}

// SetRecorder attaches a flight recorder: the uplink emits a LinkRate
// event (labelled typ, e.g. "uplink") whenever its observed capacity
// changes during integration. Pass nil to detach.
func (u *Uplink) SetRecorder(rec *timeline.Recorder, typ string) {
	u.rec = rec
	u.recLabel = typ
	u.rateSeen = false
}

// collectObserved rebuilds the list of members with a recorder.
func (u *Uplink) collectObserved() {
	u.observed = u.observed[:0]
	for _, l := range u.members {
		if l.rec != nil {
			u.observed = append(u.observed, l)
		}
	}
}

// observeRate emits a LinkRate event when the uplink capacity at now
// differs from the last observed value, then lets every recorded member
// leaf do the same for its own access capacity.
func (u *Uplink) observeRate(now time.Duration) {
	if u.rec != nil {
		rate := float64(u.profile.RateAt(now)) / 1000 // bits/s → Kbps
		//lint:ignore floateq piecewise-constant profiles repeat exact values between breakpoints; equality deduplicates, it never gates logic
		if !u.rateSeen || rate != u.lastRate {
			u.rateSeen = true
			u.lastRate = rate
			u.rec.Emit(timeline.Event{
				At:    now,
				Kind:  timeline.LinkRate,
				Type:  u.recLabel,
				Index: -1,
				Rate:  rate,
			})
		}
	}
	for _, l := range u.observed {
		l.observeRate(now)
	}
}

// advance integrates every member's transfers from lastUpdate to now at
// the allocation that applied over the span (group wake events at every
// completion and breakpoint guarantee the allocation was constant), then
// completes finished transfers member by member. The completion test rides
// along with the integration: when nothing finished no member is scanned,
// and otherwise the scans start at the first member with a finished
// transfer (the ones before it would find nothing; the ones after it are
// scanned as before, since completion callbacks may change them).
func (u *Uplink) advance() {
	now := u.eng.Now()
	u.observeRate(now)
	if now <= u.lastUpdate {
		u.lastUpdate = now
		return
	}
	first := -1
	if u.sync(); len(u.flat) > 0 {
		rates := u.alloc(u.lastUpdate)
		elapsed := (now - u.lastUpdate).Seconds()
		for k, tr := range u.flat {
			tr.done += rates[k] * elapsed / 8
			if tr.done > float64(tr.size) {
				tr.done = float64(tr.size)
			}
			if first < 0 && float64(tr.size)-tr.done < completionSlack {
				first = u.leafOf[k]
			}
		}
	}
	u.lastUpdate = now
	if first < 0 {
		return
	}
	for _, l := range u.members[first:] {
		l.finishCompleted()
	}
}

// reschedule arms one wake event for the whole tree: the earliest transfer
// completion at current allocation rates, or the next capacity breakpoint
// (uplink profile, or any loaded leaf's profile/outage edge), which is the
// end of alloc's validity window.
func (u *Uplink) reschedule() {
	if u.sync(); len(u.flat) == 0 {
		u.eng.Cancel(u.wake)
		u.wake = nil
		return
	}
	now := u.eng.Now()
	rates := u.alloc(now)
	next := u.memoUntil
	for k, tr := range u.flat {
		if r := rates[k]; r > 0 {
			remaining := float64(tr.size) - tr.done
			eta := now + time.Duration(remaining*8/r*float64(time.Second))
			if eta <= now {
				eta = now + 1 // guarantee progress
			}
			if eta < next {
				next = eta
			}
		}
	}
	if next == time.Duration(math.MaxInt64) {
		u.eng.Cancel(u.wake)
		u.wake = nil
		return
	}
	u.wake = u.eng.Retime(u.wake, next, u.wakeFn)
}

func (u *Uplink) onWake() {
	u.wake = nil
	u.advance()
	u.reschedule()
}

// growF returns s resized to n, reallocating only on capacity growth.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growB returns s resized to n, reallocating only on capacity growth.
func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
