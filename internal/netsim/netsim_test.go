package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(3*time.Second, func() { order = append(order, 3) })
	eng.Schedule(1*time.Second, func() { order = append(order, 1) })
	eng.Schedule(2*time.Second, func() { order = append(order, 2) })
	eng.Schedule(1*time.Second, func() { order = append(order, 11) }) // same time: FIFO
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if eng.Now() != 3*time.Second {
		t.Errorf("clock = %v, want 3s", eng.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	ev := eng.Schedule(time.Second, func() { fired = true })
	eng.Cancel(ev)
	eng.Cancel(ev) // double cancel is a no-op
	if err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(time.Second, func() {})
	eng.Step()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	eng.Schedule(0, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	count := 0
	eng.Schedule(time.Second, func() { count++ })
	eng.Schedule(3*time.Second, func() { count++ })
	eng.RunUntil(2 * time.Second)
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
	if eng.Now() != 2*time.Second {
		t.Errorf("clock = %v, want 2s", eng.Now())
	}
	if eng.Pending() != 1 {
		t.Errorf("pending = %d, want 1", eng.Pending())
	}
}

func TestEngineBudget(t *testing.T) {
	eng := NewEngine()
	var rearm func()
	rearm = func() { eng.After(time.Second, rearm) }
	rearm()
	if err := eng.Run(10); err == nil {
		t.Error("expected budget exhaustion error")
	}
}

func TestEngineStop(t *testing.T) {
	eng := NewEngine()
	count := 0
	eng.Schedule(time.Second, func() { count++; eng.Stop() })
	eng.Schedule(2*time.Second, func() { count++ })
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if count != 1 || !eng.Stopped() {
		t.Errorf("count = %d, stopped = %v", count, eng.Stopped())
	}
}

// transferAt runs a single transfer on a fixed link and returns its duration.
func transferAt(t *testing.T, rate media.Bps, size int64) time.Duration {
	t.Helper()
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(rate))
	var got *Transfer
	link.Start(size, StartOptions{OnComplete: func(tr *Transfer) { got = tr }})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("transfer did not complete")
	}
	return got.Duration()
}

func TestSingleTransferDuration(t *testing.T) {
	// 1 Mbps, 125000 bytes = 1 Mbit -> exactly 1 s.
	d := transferAt(t, media.Kbps(1000), 125000)
	if math.Abs(d.Seconds()-1.0) > 1e-6 {
		t.Errorf("duration = %v, want 1s", d)
	}
}

func TestZeroSizeTransferCompletesInstantly(t *testing.T) {
	d := transferAt(t, media.Kbps(1000), 0)
	if d != 0 {
		t.Errorf("duration = %v, want 0", d)
	}
}

func TestEqualSharing(t *testing.T) {
	// Two equal transfers start together on a 1 Mbps link: each sees 500
	// Kbps, so a 125000-byte transfer takes 2 s; both finish together.
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	var done []time.Duration
	cb := func(tr *Transfer) { done = append(done, tr.Finished()) }
	link.Start(125000, StartOptions{OnComplete: cb})
	link.Start(125000, StartOptions{OnComplete: cb})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("completed %d transfers, want 2", len(done))
	}
	for _, d := range done {
		if math.Abs(d.Seconds()-2.0) > 1e-6 {
			t.Errorf("finish = %v, want 2s", d)
		}
	}
}

func TestUnequalSharingReleasesCapacity(t *testing.T) {
	// Small transfer (62500 B) and large (250000 B) start together at 1 Mbps.
	// Shared phase: each at 500 Kbps; small finishes at t=1 s. Large then has
	// 187500 B left at full 1 Mbps -> 1.5 s more. Total 2.5 s.
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	var small, large *Transfer
	link.Start(62500, StartOptions{OnComplete: func(tr *Transfer) { small = tr }})
	link.Start(250000, StartOptions{OnComplete: func(tr *Transfer) { large = tr }})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if small == nil || large == nil {
		t.Fatal("transfers did not complete")
	}
	if math.Abs(small.Finished().Seconds()-1.0) > 1e-6 {
		t.Errorf("small finished at %v, want 1s", small.Finished())
	}
	if math.Abs(large.Finished().Seconds()-2.5) > 1e-6 {
		t.Errorf("large finished at %v, want 2.5s", large.Finished())
	}
}

func TestProfileBreakpointMidTransfer(t *testing.T) {
	// 2 Mbps for 1 s then 500 Kbps. A 500000-byte (4 Mbit) transfer moves 2
	// Mbit in the first second, then needs 4 more seconds. Total 5 s.
	profile := trace.MustSteps([]trace.Step{
		{At: 0, Rate: media.Kbps(2000)},
		{At: time.Second, Rate: media.Kbps(500)},
	}, 0)
	eng := NewEngine()
	link := NewLink(eng, profile)
	var tr *Transfer
	link.Start(500000, StartOptions{OnComplete: func(x *Transfer) { tr = x }})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("did not complete")
	}
	if math.Abs(tr.Finished().Seconds()-5.0) > 1e-6 {
		t.Errorf("finished at %v, want 5s", tr.Finished())
	}
	if math.Abs(tr.Throughput()-800e3) > 1 {
		t.Errorf("throughput = %v, want 800 Kbps", tr.Throughput())
	}
}

func TestCyclicProfileTransfer(t *testing.T) {
	// Square wave 1 Mbps 1 s / 0 bps 1 s. 250000 B = 2 Mbit needs 2 s of
	// high phase: finishes at t=3 s (high 0-1, dead 1-2, high 2-3).
	profile := trace.SquareWave(media.Kbps(1000), 0, time.Second, time.Second)
	eng := NewEngine()
	link := NewLink(eng, profile)
	var tr *Transfer
	link.Start(250000, StartOptions{OnComplete: func(x *Transfer) { tr = x }})
	if err := eng.Run(10000); err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("did not complete")
	}
	if math.Abs(tr.Finished().Seconds()-3.0) > 1e-6 {
		t.Errorf("finished at %v, want 3s", tr.Finished())
	}
}

func TestRTTDelaysFirstByte(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	link.RTT = 100 * time.Millisecond
	var tr *Transfer
	link.Start(125000, StartOptions{OnComplete: func(x *Transfer) { tr = x }})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Started().Seconds()-0.1) > 1e-9 {
		t.Errorf("started at %v, want 100ms", tr.Started())
	}
	if math.Abs(tr.Finished().Seconds()-1.1) > 1e-6 {
		t.Errorf("finished at %v, want 1.1s", tr.Finished())
	}
}

func TestCancelStopsTransfer(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	completed := false
	tr := link.Start(125000, StartOptions{OnComplete: func(*Transfer) { completed = true }})
	eng.Schedule(500*time.Millisecond, func() { link.Cancel(tr) })
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Error("cancelled transfer completed")
	}
	if got := tr.Done(); math.Abs(got-62500) > 1 {
		t.Errorf("done = %.0f bytes, want ~62500", got)
	}
	if link.ActiveTransfers() != 0 {
		t.Error("cancelled transfer still active")
	}
}

func TestIntervalSampling(t *testing.T) {
	// 1 Mbps solo transfer sampled every 125 ms: every sample must carry
	// exactly 15625 bytes (the Fig 4(a) "just under 16 KiB" quantity).
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	var samples []float64
	link.Start(125000, StartOptions{
		SampleEvery: 125 * time.Millisecond,
		OnSample:    func(_ *Transfer, b float64, _ time.Duration) { samples = append(samples, b) },
		OnComplete:  func(*Transfer) {},
	})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 7 {
		t.Fatalf("got %d samples, want >= 7", len(samples))
	}
	for i, s := range samples {
		if math.Abs(s-15625) > 1 {
			t.Errorf("sample %d = %.0f bytes, want 15625", i, s)
		}
		if s >= 16*1024 {
			t.Errorf("sample %d = %.0f would pass Shaka's 16 KiB filter; the Fig 4(a) pathology requires it not to", i, s)
		}
	}
}

func TestSamplingEmitsFinalPartialInterval(t *testing.T) {
	// A 0.1 s transfer never completes a full 0.125 s interval; the only
	// sample is the final partial one, carrying all the bytes over the
	// actual elapsed time, so byte-flow observers never lose bytes.
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	var bytes []float64
	var intervals []time.Duration
	link.Start(12500, StartOptions{
		SampleEvery: 125 * time.Millisecond,
		OnSample: func(_ *Transfer, b float64, d time.Duration) {
			bytes = append(bytes, b)
			intervals = append(intervals, d)
		},
	})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(bytes) != 1 {
		t.Fatalf("got %d samples, want exactly the final partial one", len(bytes))
	}
	if math.Abs(bytes[0]-12500) > 1 {
		t.Errorf("final sample bytes = %.0f, want 12500", bytes[0])
	}
	if intervals[0] >= 125*time.Millisecond || intervals[0] <= 0 {
		t.Errorf("final sample interval = %v, want a positive partial interval", intervals[0])
	}
	if eng.Pending() != 0 {
		t.Errorf("pending events after completion: %d", eng.Pending())
	}
}

func TestSampleBytesSumToSize(t *testing.T) {
	// Property: across full and partial samples, bytes sum to the size.
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	var total float64
	link.Start(100000, StartOptions{
		SampleEvery: 125 * time.Millisecond,
		OnSample:    func(_ *Transfer, b float64, _ time.Duration) { total += b },
	})
	if err := eng.Run(10000); err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-100000) > 1 {
		t.Errorf("sampled bytes sum = %.0f, want 100000", total)
	}
}

// Property: total bytes delivered over any schedule of transfers never
// exceeds the link's capacity integral, and every completed transfer
// received exactly its size.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		count := int(n)%5 + 1
		profile := trace.RandomWalk(seed, media.Kbps(200), media.Kbps(2000), time.Second, 30*time.Second)
		eng := NewEngine()
		link := NewLink(eng, profile)
		var totalDone float64
		var horizon time.Duration
		sizes := []int64{30000, 80000, 125000, 200000, 50000}
		var transfers []*Transfer
		for i := 0; i < count; i++ {
			at := time.Duration(i) * 500 * time.Millisecond
			sz := sizes[i]
			eng.Schedule(at, func() {
				transfers = append(transfers, link.Start(sz, StartOptions{}))
			})
		}
		if err := eng.Run(100000); err != nil {
			return false
		}
		horizon = eng.Now()
		for _, tr := range transfers {
			if !tr.Completed() {
				return false
			}
			if math.Abs(tr.Done()-float64(tr.Size())) > 1 {
				return false
			}
			totalDone += tr.Done()
		}
		capacity := float64(trace.Average(profile, horizon)) * horizon.Seconds() / 8
		return totalDone <= capacity+float64(count) // completionSlack per transfer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(1))
	defer func() {
		if recover() == nil {
			t.Error("negative size should panic")
		}
	}()
	link.Start(-1, StartOptions{})
}

func TestNilProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil profile should panic")
		}
	}()
	NewLink(NewEngine(), nil)
}

// Property: N equal flows starting together on a fixed link finish together
// at time N*size/rate (exact fair sharing).
func TestFairSharingProperty(t *testing.T) {
	f := func(n uint8, kb uint8) bool {
		count := int(n)%6 + 2
		size := (int64(kb)%64 + 8) * 1024
		eng := NewEngine()
		link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
		var finishes []time.Duration
		for i := 0; i < count; i++ {
			link.Start(size, StartOptions{OnComplete: func(tr *Transfer) {
				finishes = append(finishes, tr.Finished())
			}})
		}
		if err := eng.Run(100000); err != nil {
			return false
		}
		if len(finishes) != count {
			return false
		}
		want := float64(count) * float64(size) * 8 / 1e6
		for _, fin := range finishes {
			if math.Abs(fin.Seconds()-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRTTWithCancelBeforeActivation(t *testing.T) {
	// Cancelling during the RTT window: the transfer must never activate
	// and the link must stay clean.
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	link.RTT = time.Second
	completed := false
	tr := link.Start(1000, StartOptions{OnComplete: func(*Transfer) { completed = true }})
	eng.Schedule(500*time.Millisecond, func() { link.Cancel(tr) })
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if completed || link.ActiveTransfers() != 0 {
		t.Errorf("cancelled-before-activation transfer ran: completed=%v active=%d",
			completed, link.ActiveTransfers())
	}
}

func TestConcurrentSamplersSeeShares(t *testing.T) {
	// Two concurrent flows on 2 Mbps: each sampler must report the 1 Mbps
	// share, not the full link (the root cause of Shaka's underestimation
	// in the paper's §3.3).
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(2000)))
	var samples [][]float64 = make([][]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		link.Start(250000, StartOptions{
			SampleEvery: 125 * time.Millisecond,
			OnSample: func(_ *Transfer, b float64, d time.Duration) {
				if d == 125*time.Millisecond {
					samples[i] = append(samples[i], b)
				}
			},
		})
	}
	if err := eng.Run(10000); err != nil {
		t.Fatal(err)
	}
	for i, ss := range samples {
		if len(ss) == 0 {
			t.Fatalf("flow %d: no samples", i)
		}
		for _, b := range ss {
			want := 1e6 * 0.125 / 8 // the per-flow share
			if math.Abs(b-want) > 1 {
				t.Fatalf("flow %d: sample %.0f B, want %.0f (the share, not the link)", i, b, want)
			}
		}
	}
}

func TestZeroRatePhaseFreezesTransfers(t *testing.T) {
	profile := trace.MustSteps([]trace.Step{
		{At: 0, Rate: media.Kbps(1000)},
		{At: time.Second, Rate: 0},
		{At: 3 * time.Second, Rate: media.Kbps(1000)},
	}, 0)
	eng := NewEngine()
	link := NewLink(eng, profile)
	var tr *Transfer
	link.Start(250000, StartOptions{OnComplete: func(x *Transfer) { tr = x }}) // 2 Mbit
	if err := eng.Run(10000); err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("did not complete")
	}
	// 1 Mbit in [0,1), outage [1,3), remaining 1 Mbit in [3,4).
	if math.Abs(tr.Finished().Seconds()-4.0) > 1e-6 {
		t.Errorf("finished at %v, want 4s", tr.Finished())
	}
}

func TestWeightedSharing(t *testing.T) {
	// Weight-3 vs weight-1 flows on 1 Mbps: shares 750/250 Kbps. The heavy
	// 93750-byte transfer finishes at t=1s; the light 62500-byte transfer
	// then gets the full link: 31250 B remained at t=1 (250 Kbps x 1 s),
	// finishing 0.25 s later... at full rate 1 Mbps: +0.25s -> 1.25s.
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	var heavy, light *Transfer
	link.Start(93750, StartOptions{Weight: 3, OnComplete: func(tr *Transfer) { heavy = tr }})
	link.Start(62500, StartOptions{Weight: 1, OnComplete: func(tr *Transfer) { light = tr }})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if heavy == nil || light == nil {
		t.Fatal("transfers incomplete")
	}
	if math.Abs(heavy.Finished().Seconds()-1.0) > 1e-6 {
		t.Errorf("heavy finished at %v, want 1s", heavy.Finished())
	}
	if math.Abs(light.Finished().Seconds()-1.25) > 1e-6 {
		t.Errorf("light finished at %v, want 1.25s", light.Finished())
	}
}

func TestCrossTrafficHalvesThroughput(t *testing.T) {
	// Equal-weight cross traffic between 0 and 10 s: a 1 s solo transfer
	// takes 2 s inside the window and 1 s after it ends.
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	link.StartCrossTraffic(1, 0, 10*time.Second)
	var during, after *Transfer
	eng.Schedule(time.Second, func() {
		link.Start(125000, StartOptions{OnComplete: func(tr *Transfer) { during = tr }})
	})
	eng.Schedule(12*time.Second, func() {
		link.Start(125000, StartOptions{OnComplete: func(tr *Transfer) { after = tr }})
	})
	if err := eng.Run(100000); err != nil {
		t.Fatal(err)
	}
	if during == nil || after == nil {
		t.Fatal("transfers incomplete")
	}
	if math.Abs(during.Duration().Seconds()-2.0) > 1e-6 {
		t.Errorf("transfer under cross traffic took %v, want 2s", during.Duration())
	}
	if math.Abs(after.Duration().Seconds()-1.0) > 1e-6 {
		t.Errorf("transfer after cross traffic took %v, want 1s", after.Duration())
	}
}

func TestCrossTrafficNoOpInputs(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	link.StartCrossTraffic(0, 0, time.Second)             // zero weight
	link.StartCrossTraffic(1, time.Second, time.Second/2) // stop before start
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if link.ActiveTransfers() != 0 {
		t.Error("no-op cross traffic left active transfers")
	}
}

func TestOutageStallsTransfer(t *testing.T) {
	// 1 Mbps link with a blackout over [1s, 3s). A 250000-byte (2 Mbit)
	// transfer moves 1 Mbit in the first second, stalls for 2 s, and
	// finishes the second Mbit by t=4 s.
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	link.AddOutage(1*time.Second, 3*time.Second)
	var got *Transfer
	link.Start(250000, StartOptions{OnComplete: func(tr *Transfer) { got = tr }})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("transfer did not complete")
	}
	if math.Abs(got.Finished().Seconds()-4.0) > 1e-6 {
		t.Errorf("finished at %v, want 4s", got.Finished())
	}
}

// outageAddedMidTransfer runs one 1,000,000-byte transfer over link at
// 8 Mbps (1 s without an outage) and, at 250 ms, adds a 250 ms outage at
// [500 ms, 750 ms) while the transfer is in flight. It returns the finish
// time.
func outageAddedMidTransfer(t *testing.T, eng *Engine, link *Link) time.Duration {
	t.Helper()
	var got *Transfer
	link.Start(1_000_000, StartOptions{OnComplete: func(tr *Transfer) { got = tr }})
	eng.Schedule(250*time.Millisecond, func() { link.AddOutage(500*time.Millisecond, 750*time.Millisecond) })
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("transfer did not complete")
	}
	return got.Finished()
}

// TestOutageAddedOnLoadedLink: an outage added while a transfer is in
// flight delays it by exactly the outage length. The link once recorded
// the window without integrating up to now or rearming its wake, so the
// transfer finished on the old schedule as if the outage never happened.
func TestOutageAddedOnLoadedLink(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(8_000)))
	if got, want := outageAddedMidTransfer(t, eng, link), 1250*time.Millisecond; got != want {
		t.Fatalf("finished at %v, want %v (1 s + the 250 ms outage)", got, want)
	}
}

// TestOutageAddedOnLoadedLeaf is the same on an access leaf behind a
// faster uplink: the group wake must be rearmed for the leaf's new edges.
func TestOutageAddedOnLoadedLeaf(t *testing.T) {
	eng := NewEngine()
	up := NewUplink(eng, trace.Fixed(media.Kbps(100_000)))
	up.NewLeaf(trace.Fixed(media.Kbps(8_000))) // an idle neighbour
	leaf := up.NewLeaf(trace.Fixed(media.Kbps(8_000)))
	if got, want := outageAddedMidTransfer(t, eng, leaf), 1250*time.Millisecond; got != want {
		t.Fatalf("finished at %v, want %v (1 s + the 250 ms outage)", got, want)
	}
}

func TestOutageZeroesRateAt(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	link.AddOutage(2*time.Second, 5*time.Second)
	if r := link.RateAt(1 * time.Second); r <= 0 {
		t.Errorf("rate before outage = %v, want > 0", r)
	}
	if r := link.RateAt(3 * time.Second); r != 0 {
		t.Errorf("rate inside outage = %v, want 0", r)
	}
	if r := link.RateAt(5 * time.Second); r <= 0 {
		t.Errorf("rate at outage end = %v, want > 0 (half-open window)", r)
	}
}

func TestOutageInvalidWindowIgnored(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(1000)))
	link.AddOutage(3*time.Second, 3*time.Second)
	if r := link.RateAt(3 * time.Second); r <= 0 {
		t.Errorf("empty outage window changed the rate: %v", r)
	}
}

// TestStartNegativeExtraDelayClamped is the regression test for the
// ExtraDelay contract: a caller-supplied negative delay (e.g. a buggy
// OnRequest hook returning a "speedup") must clamp to zero at the network
// boundary, not schedule the activation in the engine's past and panic.
func TestStartNegativeExtraDelayClamped(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(8000)))
	link.RTT = 50 * time.Millisecond
	var done *Transfer
	tr := link.Start(1000, StartOptions{
		ExtraDelay: -200 * time.Millisecond, // more negative than the RTT covers
		OnComplete: func(tr *Transfer) { done = tr },
	})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if done != tr {
		t.Fatal("transfer never completed")
	}
	if tr.Started() != 0 {
		t.Errorf("first byte at %v, want 0 (clamped, not time travel)", tr.Started())
	}
}
