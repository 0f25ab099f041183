package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// The engine once ran on a calendar queue; the TestCalendar* cases below
// pin the orderings that queue had to special-case (same-instant bursts,
// long empty gaps, growth, RunUntil's peek) and now guard the heap.

// queueOp is one step of a randomized workload: schedule, cancel, step,
// run-until, or retime.
type queueOp struct {
	kind  int // 0 schedule, 1 cancel, 2 step, 3 run-until, 4 retime
	delay time.Duration
	pick  int // which live event to cancel or retime
}

// randomOps builds a workload with heavy same-timestamp collisions (delay 0
// and small quantized delays) so the seq tie-break is exercised constantly.
// RunUntil ops (often targeting a time before the next pending event, so the
// probe peeks without popping) interleave with later schedules to cover the
// persisted-peek cursor states. Retime ops move a live event to a new
// delay, which may tie with or precede every other pending event.
func randomOps(rng *rand.Rand, n int) []queueOp {
	ops := make([]queueOp, n)
	delay := func() time.Duration {
		if rng.Intn(4) == 0 {
			return 0
		}
		return time.Duration(rng.Intn(50)) * time.Millisecond
	}
	for i := range ops {
		switch r := rng.Intn(12); {
		case r < 5:
			ops[i] = queueOp{kind: 0, delay: delay()}
		case r < 7:
			ops[i] = queueOp{kind: 1, pick: rng.Int()}
		case r < 9:
			ops[i] = queueOp{kind: 4, delay: delay(), pick: rng.Int()}
		case r < 10:
			// Small advances rarely reach the next event (delays above are up
			// to 50ms), so most of these peek a far event and leave it pending.
			ops[i] = queueOp{kind: 3, delay: time.Duration(rng.Intn(8)) * time.Millisecond}
		default:
			ops[i] = queueOp{kind: 2}
		}
	}
	return ops
}

// replay runs ops against an engine and returns the (time, tag) firing
// sequence. Tags are assigned in schedule order, so identical sequences mean
// identical event ordering, including tie-breaks. A retime op gives the
// moved event a new tag, as a fresh Schedule would; with retime false it
// is carried out as Cancel followed by Schedule instead of Retime.
func replay(e *Engine, ops []queueOp, retime bool) []string {
	var fired []string
	live := map[int]*Event{}
	tag := 0
	fire := func(id int) func() {
		return func() {
			delete(live, id)
			fired = append(fired, fmt.Sprintf("%d@%v", id, e.Now()))
		}
	}
	pickLive := func(pick int) int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		return cancelPick(ids, pick, tag)
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			live[tag] = e.After(op.delay, fire(tag))
			tag++
		case 1:
			if len(live) == 0 {
				continue
			}
			best := pickLive(op.pick)
			e.Cancel(live[best])
			delete(live, best)
		case 4:
			if len(live) == 0 {
				continue
			}
			best := pickLive(op.pick)
			ev := live[best]
			delete(live, best)
			if retime {
				live[tag] = e.Retime(ev, e.Now()+op.delay, fire(tag))
			} else {
				e.Cancel(ev)
				live[tag] = e.After(op.delay, fire(tag))
			}
			tag++
		case 2:
			e.Step()
		case 3:
			e.RunUntil(e.Now() + op.delay)
		}
	}
	for e.Step() {
	}
	return fired
}

// cancelPick chooses the event a cancel op removes: the lowest live id at
// or above pick mod (tag+1), else the lowest live id.
func cancelPick(ids []int, pick, tag int) int {
	want := pick % (tag + 1)
	best := -1
	for _, id := range ids {
		if id >= want && (best == -1 || id < best) {
			best = id
		}
	}
	if best == -1 {
		best = slices.Min(ids)
	}
	return best
}

// oracleReplay runs ops on a model of the engine's contract that keeps its
// pending events in a plain list and fires them by sorting on (at, seq).
// Ids are assigned in schedule order, so the id is the seq.
func oracleReplay(ops []queueOp) []string {
	type pending struct {
		at time.Duration
		id int
	}
	var (
		now   time.Duration
		queue []pending
		fired []string
		tag   int
	)
	fire := func() {
		sort.Slice(queue, func(i, j int) bool {
			if queue[i].at != queue[j].at {
				return queue[i].at < queue[j].at
			}
			return queue[i].id < queue[j].id
		})
		p := queue[0]
		queue = queue[1:]
		now = p.at
		fired = append(fired, fmt.Sprintf("%d@%v", p.id, now))
	}
	earliest := func() time.Duration {
		at := queue[0].at
		for _, p := range queue {
			at = min(at, p.at)
		}
		return at
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			queue = append(queue, pending{at: now + op.delay, id: tag})
			tag++
		case 1, 4:
			if len(queue) == 0 {
				continue
			}
			ids := make([]int, len(queue))
			for i, p := range queue {
				ids[i] = p.id
			}
			best := cancelPick(ids, op.pick, tag)
			queue = slices.DeleteFunc(queue, func(p pending) bool { return p.id == best })
			if op.kind == 4 {
				queue = append(queue, pending{at: now + op.delay, id: tag})
				tag++
			}
		case 2:
			if len(queue) > 0 {
				fire()
			}
		case 3:
			t := now + op.delay
			for len(queue) > 0 && earliest() <= t {
				fire()
			}
			now = max(now, t)
		}
	}
	for len(queue) > 0 {
		fire()
	}
	return fired
}

// TestEngineMatchesSortOracle checks the engine against oracleReplay on
// randomized schedule/cancel/retime/step/RunUntil workloads with dense
// timestamp collisions: the same events must fire at the same times in the
// same order, tie-breaks included.
func TestEngineMatchesSortOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ops := randomOps(rand.New(rand.NewSource(seed)), 2000)
		want := oracleReplay(ops)
		got := replay(NewEngine(), ops, true)
		sameFirings(t, seed, "engine", got, "oracle", want)
	}
}

// TestEngineRetimeMatchesCancelSchedule runs the same random workloads on
// two engines, one moving events with Retime and one with Cancel followed
// by Schedule, and requires an identical firing order: Retime must take
// the seq a fresh Schedule would, so the (at, seq) pop order cannot tell
// the two apart.
func TestEngineRetimeMatchesCancelSchedule(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		ops := randomOps(rand.New(rand.NewSource(seed)), 2000)
		retimed := replay(NewEngine(), ops, true)
		rescheduled := replay(NewEngine(), ops, false)
		sameFirings(t, seed, "Retime", retimed, "Cancel+Schedule", rescheduled)
	}
}

// TestEngineRetimeCancelledHandle: retiming a cancelled handle schedules a
// new event, as Cancel+Schedule would, instead of reviving the old one.
// (Fired handles are out of contract: holders drop them in the callback.)
func TestEngineRetimeCancelledHandle(t *testing.T) {
	e := NewEngine()
	var fired []string
	record := func(tag string) func() { return func() { fired = append(fired, tag) } }
	cancelled := e.Schedule(2*time.Millisecond, record("cancelled"))
	e.Cancel(cancelled)
	e.Schedule(time.Millisecond, record("first"))
	if ev := e.Retime(cancelled, time.Millisecond, record("retimed")); ev == cancelled {
		t.Fatal("Retime revived a cancelled handle in place")
	}
	for e.Step() {
	}
	if want := []string{"first", "retimed"}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// sameFirings fails the test at the first position where two firing
// sequences differ.
func sameFirings(t *testing.T, seed int64, gotName string, got []string, wantName string, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: %s fired %d events, %s %d", seed, gotName, len(got), wantName, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: firing %d differs: %s %s, %s %s", seed, i, gotName, got[i], wantName, want[i])
		}
	}
}

// TestCalendarSparseAndBurst covers a long empty gap and a burst of equal
// timestamps, which the engine must order purely by seq.
func TestCalendarSparseAndBurst(t *testing.T) {
	e := NewEngine()
	var fired []int
	// Burst: 100 events at the same instant.
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { fired = append(fired, i) })
	}
	// Sparse: one event a simulated hour away.
	e.Schedule(time.Hour, func() { fired = append(fired, 100) })
	for e.Step() {
	}
	if len(fired) != 101 {
		t.Fatalf("fired %d of 101", len(fired))
	}
	for i, got := range fired {
		if got != i {
			t.Fatalf("firing %d: got event %d, want %d (seq tie-break broken)", i, got, i)
		}
	}
	if e.Now() != time.Hour {
		t.Fatalf("clock at %v, want 1h", e.Now())
	}
}

// TestCalendarResizeKeepsOrder grows the queue to 5000 pending events at
// random times, then drains it and checks global (at, seq) order.
func TestCalendarResizeKeepsOrder(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	type key struct {
		at  time.Duration
		ord int
	}
	var fired []key
	for i := 0; i < 5000; i++ {
		i := i
		at := time.Duration(rng.Intn(10_000)) * time.Microsecond
		e.Schedule(at, func() { fired = append(fired, key{e.Now(), i}) })
	}
	for e.Step() {
	}
	if len(fired) != 5000 {
		t.Fatalf("fired %d of 5000", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.ord < a.ord) {
			t.Fatalf("order violated at %d: %v then %v", i, a, b)
		}
	}
}

// TestCalendarRunUntilPeek pins RunUntil's peek path: events at exactly t
// fire, events after t stay pending.
func TestCalendarRunUntilPeek(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(10*time.Millisecond, func() { fired = append(fired, 0) })
	e.Schedule(20*time.Millisecond, func() { fired = append(fired, 1) })
	e.Schedule(30*time.Millisecond, func() { fired = append(fired, 2) })
	e.RunUntil(20 * time.Millisecond)
	if len(fired) != 2 || e.Pending() != 1 {
		t.Fatalf("RunUntil(20ms): fired %v, pending %d; want [0 1], 1", fired, e.Pending())
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock at %v, want 20ms", e.Now())
	}
}

// TestCalendarScheduleAfterRunUntilPeek: RunUntil's final peek looks at a
// far-future event without popping it, and an event scheduled afterwards at
// an earlier time must still fire first.
func TestCalendarScheduleAfterRunUntilPeek(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	record := func() { fired = append(fired, e.Now()) }
	e.Schedule(50*time.Millisecond, record)
	e.RunUntil(10 * time.Millisecond) // peeks the 50ms event, advancing the cursor
	e.Schedule(15*time.Millisecond, record)
	for e.Step() {
	}
	want := []time.Duration{15 * time.Millisecond, 50 * time.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v (event behind the peeked cursor fired late)", fired, want)
		}
	}
}

// BenchmarkQueue holds the pending count steady at each size — every step
// reschedules one event a full spread ahead — and times a schedule/step
// pair.
func BenchmarkQueue(b *testing.B) {
	for _, pending := range []int{8, 64, 4096} {
		b.Run(fmt.Sprintf("pending-%d", pending), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < pending; i++ {
				e.Schedule(time.Duration(i)*time.Millisecond, func() {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(time.Duration(pending)*time.Millisecond, func() {})
				e.Step()
			}
		})
	}
}
