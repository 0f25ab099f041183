package netsim

import (
	"fmt"
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// TestScheduleStepAllocFree pins the event freelist: once warm, a
// schedule/fire cycle must not allocate at all. Before pooling, every
// Schedule allocated one Event — across a five-minute session that is
// hundreds of thousands of allocations per fleet job.
func TestScheduleStepAllocFree(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Warm the freelist and the heap's backing array.
	eng.Schedule(eng.Now()+time.Millisecond, fn)
	eng.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Schedule(eng.Now()+time.Millisecond, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+step steady state allocates %.2f objects per cycle, want 0 (event pooling regressed)", allocs)
	}
}

// TestCancelInOwnCallbackAfterPooling guards the recycling contract:
// cancelling the currently-firing event from inside its own callback must
// stay a no-op and must not corrupt a pending event that could otherwise
// have reused the object.
func TestCancelInOwnCallbackAfterPooling(t *testing.T) {
	eng := NewEngine()
	fired := 0
	var self *Event
	self = eng.Schedule(time.Millisecond, func() {
		// Schedule first, then cancel our own (already-fired) handle: with
		// eager recycling the new event would be cancelled instead.
		eng.Schedule(eng.Now()+time.Millisecond, func() { fired++ })
		eng.Cancel(self)
	})
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("follow-up event fired %d times, want 1: Cancel of a fired event hit a recycled one", fired)
	}
}

// TestPoolReuseKeepsOrdering re-runs a scheduling pattern long enough to
// cycle the freelist and checks events still fire in (time, seq) order.
func TestPoolReuseKeepsOrdering(t *testing.T) {
	eng := NewEngine()
	var got []int
	for round := 0; round < 50; round++ {
		r := round
		base := eng.Now()
		eng.Schedule(base+2*time.Millisecond, func() { got = append(got, r*3+1) })
		eng.Schedule(base+time.Millisecond, func() { got = append(got, r*3) })
		eng.Schedule(base+2*time.Millisecond, func() { got = append(got, r*3+2) })
		eng.RunUntil(base + 3*time.Millisecond)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("firing order broke at position %d: got %d (full order %v...)", i, v, got[:i+1])
		}
	}
}

// warmUplink builds a fleet cell: n leaves of 6 Mbps behind a 24 Mbps
// uplink, each leaf carrying a demuxed pair of never-ending transfers
// sampled every 125 ms. The engine has run one second, so every transfer
// is active and every scratch slice is grown.
func warmUplink(n int) (*Engine, *Uplink) {
	eng := NewEngine()
	up := NewUplink(eng, trace.Fixed(media.Kbps(24_000)))
	noop := func(*Transfer, float64, time.Duration) {}
	for i := 0; i < n; i++ {
		leaf := up.NewLeaf(trace.Fixed(media.Kbps(6_000)))
		for _, label := range []string{"video", "audio"} {
			leaf.Start(1<<40, StartOptions{Label: label, SampleEvery: 125 * time.Millisecond, OnSample: noop})
		}
	}
	eng.RunUntil(time.Second)
	return eng, up
}

// TestUplinkSampleAllocFree pins the steady state of a fleet cell: a
// progress sample with no completion (integrate the whole tree, find
// nothing finished, report, rearm) must not allocate.
func TestUplinkSampleAllocFree(t *testing.T) {
	eng, _ := warmUplink(16)
	allocs := testing.AllocsPerRun(200, func() { eng.Step() })
	if allocs != 0 {
		t.Fatalf("a progress sample on a warm 16-leaf uplink allocates %.2f objects, want 0", allocs)
	}
}

// TestUplinkRescheduleAllocFree: rearming a pending group wake moves the
// event in place (Engine.Retime). Cancel+Schedule allocated a new Event
// every time, since cancelled events are never recycled.
func TestUplinkRescheduleAllocFree(t *testing.T) {
	_, up := warmUplink(16)
	if up.wake == nil {
		t.Fatal("warm uplink has no pending wake")
	}
	allocs := testing.AllocsPerRun(200, up.reschedule)
	if allocs != 0 {
		t.Fatalf("rearming the group wake allocates %.2f objects, want 0", allocs)
	}
}

// TestFinishCompletedAllocFree: completing a transfer must not allocate a
// list of finished transfers once the link's scratch list is warm.
func TestFinishCompletedAllocFree(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1_000)))
	done := link.prepare(1_000, StartOptions{})
	busy := link.prepare(1<<40, StartOptions{})
	complete := func() {
		done.completed = false
		done.done = float64(done.size)
		link.active = append(link.active[:0], busy, done)
		link.finishCompleted()
	}
	complete() // warm the scratch list
	allocs := testing.AllocsPerRun(100, complete)
	if allocs != 0 {
		t.Fatalf("finishCompleted allocates %.2f objects per completion, want 0", allocs)
	}
	if !done.Completed() || busy.Completed() || link.ActiveTransfers() != 1 {
		t.Fatalf("completion bookkeeping broke: done=%v busy=%v active=%d",
			done.Completed(), busy.Completed(), link.ActiveTransfers())
	}
}

// BenchmarkUplinkAlloc times one weighted max-min allocation over a cell
// of demuxed sessions (two flows per leaf): "miss" is what a flow change
// costs (rebuild the flat active list and the validity window, run the
// progressive fill), "hit" the memo check a progress sample takes between
// wakes.
func BenchmarkUplinkAlloc(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		for _, hit := range []bool{false, true} {
			name := fmt.Sprintf("members-%d/miss", n)
			if hit {
				name = fmt.Sprintf("members-%d/hit", n)
			}
			b.Run(name, func(b *testing.B) {
				eng, up := warmUplink(n)
				now := eng.Now()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !hit {
						up.gen++
					}
					up.alloc(now)
				}
			})
		}
	}
}

// BenchmarkUplinkSample times one progress sample on a warm cell of
// demuxed sessions (two sampled flows per leaf): integrate the whole tree,
// find nothing finished, report and rearm the sample.
func BenchmarkUplinkSample(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("members-%d", n), func(b *testing.B) {
			eng, _ := warmUplink(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}
