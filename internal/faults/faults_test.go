package faults

import (
	"testing"
	"time"

	"demuxabr/internal/media"
)

// Two plans with the same seed must agree on every decision, in any call
// order — the property that keeps parallel sweeps byte-identical.
func TestSegmentFaultDeterministicAndOrderIndependent(t *testing.T) {
	a := &Plan{Seed: 42, Rate: 0.3}
	b := &Plan{Seed: 42, Rate: 0.3}
	tracks := []string{"V1", "V2", "A1", "A2"}
	type decision struct {
		f  Fault
		ok bool
	}
	forward := map[string]decision{}
	for _, tr := range tracks {
		for idx := 0; idx < 50; idx++ {
			f, ok := a.SegmentFault(tr, idx, 0)
			forward[tr+"/"+itoa(idx)] = decision{f, ok}
		}
	}
	// Reverse order, different plan value, same seed.
	for i := len(tracks) - 1; i >= 0; i-- {
		for idx := 49; idx >= 0; idx-- {
			f, ok := b.SegmentFault(tracks[i], idx, 0)
			want := forward[tracks[i]+"/"+itoa(idx)]
			if ok != want.ok || f != want.f {
				t.Fatalf("decision for (%s,%d) changed with call order: got (%+v,%v) want (%+v,%v)",
					tracks[i], idx, f, ok, want.f, want.ok)
			}
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestSegmentFaultRate(t *testing.T) {
	p := &Plan{Seed: 7, Rate: 0.2}
	n, faulted := 5000, 0
	for idx := 0; idx < n; idx++ {
		if _, ok := p.SegmentFault("V1", idx, 0); ok {
			faulted++
		}
	}
	got := float64(faulted) / float64(n)
	if got < 0.15 || got > 0.25 {
		t.Fatalf("empirical fault rate %.3f far from configured 0.2", got)
	}
}

func TestSegmentFaultPersistenceClears(t *testing.T) {
	p := &Plan{Seed: 3, Rate: 1, MaxPersistence: 2}
	for idx := 0; idx < 20; idx++ {
		f, ok := p.SegmentFault("A1", idx, 0)
		if !ok {
			t.Fatalf("rate 1 must fault attempt 0 of segment %d", idx)
		}
		if f.Persistence < 1 || f.Persistence > 2 {
			t.Fatalf("persistence %d outside 1..2", f.Persistence)
		}
		if _, ok := p.SegmentFault("A1", idx, f.Persistence); ok {
			t.Fatalf("segment %d still faulted at attempt %d = persistence", idx, f.Persistence)
		}
	}
}

func TestSegmentFaultPermanent(t *testing.T) {
	p := &Plan{Seed: 3, Rate: 1, MaxPersistence: -1}
	for attempt := 0; attempt < 10; attempt++ {
		if _, ok := p.SegmentFault("A1", 0, attempt); !ok {
			t.Fatalf("MaxPersistence<0 must fault every attempt, cleared at %d", attempt)
		}
	}
}

func TestSegmentFaultTargets(t *testing.T) {
	p := &Plan{Seed: 3, Rate: 1, Targets: []string{"A1"}}
	if _, ok := p.SegmentFault("V1", 0, 0); ok {
		t.Fatal("fault injected on non-targeted track")
	}
	if _, ok := p.SegmentFault("A1", 0, 0); !ok {
		t.Fatal("no fault on targeted track at rate 1")
	}
}

func TestSegmentFaultKindsRestriction(t *testing.T) {
	p := &Plan{Seed: 11, Rate: 1, Kinds: []Kind{Timeout}}
	for idx := 0; idx < 30; idx++ {
		f, ok := p.SegmentFault("V1", idx, 0)
		if !ok {
			t.Fatalf("rate 1 must fault segment %d", idx)
		}
		if f.Kind != Timeout {
			t.Fatalf("kind %v escaped the Kinds restriction", f.Kind)
		}
	}
}

func TestNilPlanNeverFaults(t *testing.T) {
	var p *Plan
	if _, ok := p.SegmentFault("V1", 0, 0); ok {
		t.Fatal("nil plan injected a fault")
	}
}

func TestBackoffBoundedAndDeterministic(t *testing.T) {
	p := DefaultPolicy()
	key := Key(1, "V1", 3)
	for attempt := 0; attempt < 8; attempt++ {
		d1 := p.Backoff(attempt, key)
		d2 := p.Backoff(attempt, key)
		if d1 != d2 {
			t.Fatalf("backoff for attempt %d not deterministic: %v vs %v", attempt, d1, d2)
		}
		lo := time.Duration(float64(p.BaseBackoff) * (1 - p.JitterFrac/2))
		hi := time.Duration(float64(p.MaxBackoff) * (1 + p.JitterFrac/2))
		if d1 < lo || d1 > hi {
			t.Fatalf("backoff %v for attempt %d outside [%v, %v]", d1, attempt, lo, hi)
		}
	}
}

func TestBackoffGrows(t *testing.T) {
	p := DefaultPolicy()
	p.JitterFrac = 0
	if p.Backoff(0, 0) >= p.Backoff(2, 0) {
		t.Fatalf("backoff did not grow: %v vs %v", p.Backoff(0, 0), p.Backoff(2, 0))
	}
	if got := p.Backoff(10, 0); got != p.MaxBackoff {
		t.Fatalf("deep attempt backoff %v not capped at %v", got, p.MaxBackoff)
	}
}

func TestWithDefaultsFillsZeros(t *testing.T) {
	p := Policy{MaxAttempts: 9}.WithDefaults()
	if p.MaxAttempts != 9 {
		t.Fatalf("explicit knob overwritten: %d", p.MaxAttempts)
	}
	d := DefaultPolicy()
	if p.RequestTimeout != d.RequestTimeout || p.BackoffFactor != d.BackoffFactor || p.BlacklistAfter != d.BlacklistAfter {
		t.Fatalf("zero knobs not defaulted: %+v", p)
	}
}

func TestBlacklist(t *testing.T) {
	p := DefaultPolicy() // BlacklistAfter 3, BlacklistFor 30s
	b := NewBlacklist()
	now := 10 * time.Second
	if b.Strike("V2", now, p) || b.Strike("V2", now, p) {
		t.Fatal("blacklisted before threshold")
	}
	if !b.Strike("V2", now, p) {
		t.Fatal("third consecutive strike must blacklist")
	}
	if !b.Blocked("V2", now) {
		t.Fatal("track not blocked right after blacklisting")
	}
	if b.Blocked("V2", now+p.BlacklistFor) {
		t.Fatal("track still blocked after the exile window")
	}
	// Success clears the streak.
	b.Strike("A1", now, p)
	b.Strike("A1", now, p)
	b.Clear("A1")
	if b.Strike("A1", now, p) {
		t.Fatal("cleared streak still counted toward blacklisting")
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: 5 * time.Second, End: 8 * time.Second}
	if w.Contains(4*time.Second) || w.Contains(8*time.Second) {
		t.Fatal("window boundaries wrong (half-open expected)")
	}
	if !w.Contains(5*time.Second) || !w.Contains(7*time.Second) {
		t.Fatal("interior points not contained")
	}
}

// TestFailoverSelection pins the shared failover pick: nearest healthy
// track at or below the failed bitrate, else the cheapest healthy one,
// else — every track exiled — the cheapest track of the ladder.
func TestFailoverSelection(t *testing.T) {
	ladder := media.DramaShow().AudioTracks // A1 < A2 < A3
	a1, a2, a3 := ladder[0], ladder[1], ladder[2]
	p := Policy{BlacklistAfter: 1, BlacklistFor: time.Hour}
	b := NewBlacklist()
	if got := b.Failover(ladder, a3, 0); got != a2 {
		t.Errorf("nothing exiled: failover from A3 = %s, want A2", got.ID)
	}
	b.Strike("A1", 0, p)
	b.Strike("A2", 0, p)
	if got := b.Failover(ladder, a2, 0); got != a3 {
		t.Errorf("A1/A2 exiled: failover from A2 = %s, want A3", got.ID)
	}
	b.Strike("A3", 0, p)
	if got := b.Failover(ladder, a3, 0); got != a1 {
		t.Errorf("all exiled: failover from A3 = %s, want the cheapest, A1", got.ID)
	}
	if got := b.Failover(ladder, a1, 0); got != a1 {
		t.Errorf("all exiled: failover from A1 = %s, want A1 itself", got.ID)
	}
}
