package experiments

import (
	"bytes"
	"testing"
)

// TestFleetScaleParallelEquivalence is the runpool determinism gate for the
// fleet scale sweep: the rendered table at -parallel 1 (the literal serial
// loop) and at GOMAXPROCS workers must be byte-identical. Each (N, mode)
// job carries a whole multi-session co-simulation, so this also exercises
// engine-per-job isolation at its largest granularity.
func TestFleetScaleParallelEquivalence(t *testing.T) {
	ns := []int{1, 2, 4}
	render := func(parallel int) []byte {
		points, err := FleetScale(ns, parallel)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		PrintFleetScale(&buf, points)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(0)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel fleet scale diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestFleetDeterministic re-runs the mixed-composition fleet and demands
// byte-identical tables: arrivals, shared-bottleneck scheduling, and
// shared-cache state must all be pure functions of the seeded config.
func TestFleetDeterministic(t *testing.T) {
	render := func() []byte {
		points, err := FleetMixes(4, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		PrintFleetMixes(&buf, points)
		return buf.Bytes()
	}
	first := render()
	if len(first) == 0 {
		t.Fatal("empty fleet mixes table")
	}
	if again := render(); !bytes.Equal(first, again) {
		t.Fatalf("fleet mixes not deterministic:\n--- first ---\n%s\n--- again ---\n%s", first, again)
	}
}

// TestFleetScaleCacheAmplification pins the tentpole claim at sweep scale:
// as the fleet grows, demuxed packaging's byte hit ratio at the shared edge
// amplifies relative to muxed packaging (sessions share track objects but
// not combination objects), and it does not shrink with N.
func TestFleetScaleCacheAmplification(t *testing.T) {
	points, err := FleetScale([]int{1, 4, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[int]map[string]FleetScalePoint{}
	for _, p := range points {
		if cells[p.N] == nil {
			cells[p.N] = map[string]FleetScalePoint{}
		}
		cells[p.N][p.Mode.String()] = p
	}
	for _, n := range []int{4, 8} {
		d, m := cells[n]["demuxed"], cells[n]["muxed"]
		if d.Cache.ByteHitRatio() <= m.Cache.ByteHitRatio() {
			t.Errorf("N=%d: demuxed byte hit %.3f not above muxed %.3f",
				n, d.Cache.ByteHitRatio(), m.Cache.ByteHitRatio())
		}
	}
	if cells[8]["demuxed"].Cache.ByteHitRatio() <= cells[1]["demuxed"].Cache.ByteHitRatio() {
		t.Errorf("demuxed byte hit did not grow with N: N=1 %.3f, N=8 %.3f",
			cells[1]["demuxed"].Cache.ByteHitRatio(), cells[8]["demuxed"].Cache.ByteHitRatio())
	}
}
