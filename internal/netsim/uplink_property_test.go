package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// uplinkWalk is a seeded random drive of an uplink tree: transfers start,
// cancel, suspend and resume at random instants, and leaves, idle or
// loaded, gain outage windows, all over stepped capacity profiles.
type uplinkWalk struct {
	rng    *rand.Rand
	eng    *Engine
	up     *Uplink
	leaves []*Link
	trs    []*Transfer
}

// walkHorizon ends every walk; transfers still in flight are left there.
const walkHorizon = 8 * time.Second

func newUplinkWalk(seed int64) *uplinkWalk {
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	// Every other seed gets a tight uplink, below every leaf's floor, so
	// the backlogged-uplink equality case is exercised too.
	upLo, upHi := media.Kbps(2_000), media.Kbps(40_000)
	if seed%2 == 0 {
		upLo, upHi = media.Kbps(500), media.Kbps(1_500)
	}
	w := &uplinkWalk{
		rng: rng,
		eng: eng,
		up:  NewUplink(eng, trace.RandomWalk(seed, upLo, upHi, 700*time.Millisecond, walkHorizon)),
	}
	n := 1 + rng.Intn(64)
	for i := 0; i < n; i++ {
		p := trace.RandomWalk(seed*1000+int64(i), media.Kbps(1_500), media.Kbps(8_000),
			time.Duration(300+rng.Intn(1500))*time.Millisecond, walkHorizon)
		w.leaves = append(w.leaves, w.up.NewLeaf(p))
	}
	for i := 0; i < 4*n; i++ {
		eng.Schedule(time.Duration(rng.Int63n(int64(walkHorizon))), w.step)
	}
	return w
}

// next fires the next event due within walkHorizon.
func (w *uplinkWalk) next() bool {
	if len(w.eng.q) == 0 || w.eng.q[0].at > walkHorizon {
		return false
	}
	return w.eng.Step()
}

// step applies one random operation.
func (w *uplinkWalk) step() {
	rng := w.rng
	pick := func(ok func(*Transfer) bool) *Transfer {
		var c []*Transfer
		for _, tr := range w.trs {
			if ok(tr) {
				c = append(c, tr)
			}
		}
		if len(c) == 0 {
			return nil
		}
		return c[rng.Intn(len(c))]
	}
	live := func(tr *Transfer) bool { return !tr.completed && !tr.cancelled }
	switch r := rng.Intn(10); {
	case r < 5:
		leaf := w.leaves[rng.Intn(len(w.leaves))]
		opts := StartOptions{Weight: []float64{1, 1, 2, 0.5}[rng.Intn(4)]}
		if rng.Intn(2) == 0 {
			opts.SampleEvery = 125 * time.Millisecond
			opts.OnSample = func(*Transfer, float64, time.Duration) {}
		}
		if rng.Intn(3) == 0 {
			opts.ExtraDelay = time.Duration(rng.Intn(50)) * time.Millisecond
		}
		w.trs = append(w.trs, leaf.Start(int64(20_000+rng.Intn(2_000_000)), opts))
	case r < 6:
		if tr := pick(live); tr != nil {
			tr.link.Cancel(tr)
		}
	case r < 7:
		if tr := pick(live); tr != nil {
			tr.link.Suspend(tr)
		}
	case r < 8:
		if tr := pick(func(tr *Transfer) bool { return live(tr) && tr.suspended }); tr != nil {
			tr.link.Resume(tr)
		}
	default:
		leaf := w.leaves[rng.Intn(len(w.leaves))]
		start := w.eng.Now() + time.Duration(rng.Intn(2000))*time.Millisecond
		leaf.AddOutage(start, start+time.Duration(1+rng.Intn(1500))*time.Millisecond)
	}
}

// sameBits reports whether a and b hold the same floats bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestUplinkAllocMemoMatchesFreshFill drives random uplink trees of 1-64
// leaves and, after every engine event, checks that no finished transfer
// is left active (the completion scans must not skip one) and checks
// alloc's memo: its validity
// window must end exactly at the first capacity breakpoint of the uplink or
// of a loaded leaf, and its rates must equal a fresh progressive fill bit
// for bit, so every change to a flow set must have invalidated it. The
// memo is restored after each check, so the walk runs as it would without
// one. The walks must also reach the cases that make the window exact
// rather than merely safe: a memo kept across an idle leaf's capacity
// change, a memo dropped at the window's end with the flows unchanged, and
// an idle leaf loaded while its next breakpoint falls inside the window.
func TestUplinkAllocMemoMatchesFreshFill(t *testing.T) {
	var keptAcrossIdle, expired, loadedInWindow int
	for seed := int64(1); seed <= 12; seed++ {
		w := newUplinkWalk(seed)
		up := w.up
		events := 0
		// The flows, window and loaded leaves as of the previous check.
		var lastGen uint64
		var lastUntil time.Duration
		wasLoaded := make([]bool, len(w.leaves))
		for w.next() {
			events++
			if up.sync(); len(up.flat) == 0 {
				continue
			}
			now := w.eng.Now()
			for _, tr := range up.flat {
				if float64(tr.size)-tr.done < completionSlack {
					t.Fatalf("seed %d at %v: a finished transfer (%v of %d bytes) is still active", seed, now, tr.done, tr.size)
				}
			}
			gen, from, until, rates := up.memoGen, up.memoFrom, up.memoUntil, slices.Clone(up.rates)
			valid := gen == up.gen && now >= from && now < until
			if valid {
				if want := windowEnd(up, now); until != want {
					t.Fatalf("seed %d at %v: memo window [%v, %v) should end at %v", seed, now, from, until, want)
				}
				for _, l := range w.leaves {
					if l.ActiveTransfers() == 0 && math.Float64bits(l.rateAt(from)) != math.Float64bits(l.rateAt(now)) {
						keptAcrossIdle++
						break
					}
				}
			}
			if up.gen == lastGen && now >= lastUntil {
				expired++
			}
			if up.gen != lastGen && now < lastUntil {
				for i, l := range w.leaves {
					if bp, ok := l.nextChange(now); ok && !wasLoaded[i] && l.ActiveTransfers() > 0 && bp < lastUntil {
						loadedInWindow++
						break
					}
				}
			}
			memo := slices.Clone(up.alloc(now))
			up.gen++ // force a fresh fill
			fresh := up.alloc(now)
			if !sameBits(memo, fresh) {
				t.Fatalf("seed %d, %d leaves, event %d at %v: memoized rates %v, fresh fill %v",
					seed, len(w.leaves), events, now, memo, fresh)
			}
			up.gen--
			up.memoGen, up.memoFrom, up.memoUntil = gen, from, until
			up.rates = append(up.rates[:0], rates...)
			lastGen, lastUntil = up.gen, until
			if !valid {
				lastUntil = windowEnd(up, now)
			}
			for i, l := range w.leaves {
				wasLoaded[i] = l.ActiveTransfers() > 0
			}
		}
		if events < 100 {
			t.Fatalf("seed %d: only %d events; the walk exercises too little", seed, events)
		}
	}
	if keptAcrossIdle == 0 || expired == 0 || loadedInWindow == 0 {
		t.Fatalf("walks missed a window case: kept across an idle leaf's change %d, expired %d, idle leaf loaded in window %d",
			keptAcrossIdle, expired, loadedInWindow)
	}
	t.Logf("window cases: kept across an idle leaf's change %d, expired %d, idle leaf loaded in window %d",
		keptAcrossIdle, expired, loadedInWindow)
}

// windowEnd recomputes, from scratch, the end of an allocation window
// holding at t: the first breakpoint after t of the uplink or of a leaf
// with transfers in flight (MaxInt64 if none).
func windowEnd(up *Uplink, t time.Duration) time.Duration {
	end := time.Duration(math.MaxInt64)
	if bp, ok := up.profile.NextChange(t); ok {
		end = bp
	}
	for _, l := range up.members {
		if bp, ok := l.nextChange(t); ok && l.ActiveTransfers() > 0 && bp < end {
			end = bp
		}
	}
	return end
}

// TestUplinkConservationBetweenWakes drives the same random trees and,
// over every span between two engine events, bounds the bytes integrated
// by capacity × span: across the tree by the uplink, and on each leaf by
// that leaf, each within completionSlack per transfer in flight. When the
// uplink binds every flow (each loaded leaf is at least as fast) and no
// flow finishes inside the span, the tree total meets the uplink bound.
func TestUplinkConservationBetweenWakes(t *testing.T) {
	equalities := 0
	for seed := int64(1); seed <= 12; seed++ {
		w := newUplinkWalk(seed)
		leafOf := map[*Link]int{}
		for i, l := range w.leaves {
			leafOf[l] = i
		}
		// The state after the previous event: bytes moved per leaf, the
		// capacities, and the flows in flight.
		var (
			prevAt     time.Duration
			prevBytes  = make([]float64, len(w.leaves))
			prevCap    = make([]float64, len(w.leaves))
			prevUp     float64
			prevActive []*Transfer
		)
		bytes := func() []float64 {
			b := make([]float64, len(w.leaves))
			for _, tr := range w.trs {
				b[leafOf[tr.link]] += tr.done
			}
			return b
		}
		for w.next() {
			w.up.advance() // integrate every flow up to now
			now := w.eng.Now()
			cur := bytes()
			if span := (now - prevAt).Seconds(); span > 0 && len(prevActive) > 0 {
				perLeaf := make([]int, len(w.leaves))
				for _, tr := range prevActive {
					perLeaf[leafOf[tr.link]]++
				}
				moved := 0.0
				for i := range w.leaves {
					d := cur[i] - prevBytes[i]
					moved += d
					if bound := prevCap[i]*span/8 + completionSlack*float64(perLeaf[i]); d > bound {
						t.Fatalf("seed %d leaf %d over (%v, %v]: moved %.3f bytes, leaf bound %.3f",
							seed, i, prevAt, now, d, bound)
					}
				}
				slack := completionSlack * float64(len(prevActive))
				upBytes := prevUp * span / 8
				if moved > upBytes+slack {
					t.Fatalf("seed %d over (%v, %v]: tree moved %.3f bytes, uplink bound %.3f",
						seed, prevAt, now, moved, upBytes)
				}
				binding := prevUp > 0
				for _, tr := range prevActive {
					if tr.completed || prevCap[leafOf[tr.link]] < prevUp {
						binding = false
					}
				}
				if binding {
					equalities++
					if math.Abs(moved-upBytes) > slack {
						t.Fatalf("seed %d over (%v, %v]: backlogged tree behind a binding uplink moved %.3f bytes, want %.3f",
							seed, prevAt, now, moved, upBytes)
					}
				}
			}
			prevAt, prevBytes = now, cur
			prevUp = float64(w.up.profile.RateAt(now))
			prevActive = prevActive[:0]
			for i, l := range w.leaves {
				prevCap[i] = l.rateAt(now)
				prevActive = append(prevActive, l.active...)
			}
		}
	}
	if equalities == 0 {
		t.Fatal("no span had every flow backlogged behind a binding uplink; the equality case went unchecked")
	}
}
