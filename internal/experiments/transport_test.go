package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"demuxabr/internal/netsim"
)

// TestTransportComparisonDeterminism pins the byte-identical contract:
// the comparison (and its rendering) must not depend on the worker count
// or the repetition.
func TestTransportComparisonDeterminism(t *testing.T) {
	serial, err := TransportComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TransportComparison(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("transport comparison differs between serial and parallel runs")
	}
	again, err := TransportComparison(0)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	PrintTransport(&a, parallel)
	PrintTransport(&b, again)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("transport report is not byte-identical across repeats")
	}
}

// TestTransportDeltaOrdering is the acceptance check for the family's
// headline: the demuxed-over-muxed stall delta must widen under HTTP/1.1
// and narrow under HTTP/3 (the QUIC-study direction), with HTTP/2
// between. Dead air alone separates h3 from the TCP pair; the
// connection-stall time separates all three strictly.
func TestTransportDeltaOrdering(t *testing.T) {
	cells, err := TransportComparison(0)
	if err != nil {
		t.Fatal(err)
	}
	d := TransportDeltas(cells)
	h1, h2, h3 := d[netsim.H1], d[netsim.H2], d[netsim.H3]
	t.Logf("deltas: h1 dead=%v stall=%v | h2 dead=%v stall=%v | h3 dead=%v stall=%v",
		h1.DeadAir, h1.ConnStall, h2.DeadAir, h2.ConnStall, h3.DeadAir, h3.ConnStall)
	if !(h1.Total() > h2.Total() && h2.Total() > h3.Total()) {
		t.Errorf("total stall deltas not ordered h1 > h2 > h3: %v, %v, %v",
			h1.Total(), h2.Total(), h3.Total())
	}
	if !(h1.ConnStall > h2.ConnStall && h2.ConnStall > h3.ConnStall) {
		t.Errorf("conn-stall deltas not ordered h1 > h2 > h3: %v, %v, %v",
			h1.ConnStall, h2.ConnStall, h3.ConnStall)
	}
	if h1.DeadAir <= h3.DeadAir {
		t.Errorf("dead-air delta does not widen under h1 vs h3: %v <= %v", h1.DeadAir, h3.DeadAir)
	}
	if h2.DeadAir <= h3.DeadAir {
		t.Errorf("dead-air delta does not widen under h2 vs h3: %v <= %v", h2.DeadAir, h3.DeadAir)
	}
	for _, p := range TransportProtocols() {
		if d[p].DeadAir <= 0 {
			t.Errorf("demuxed free-running should cost dead air under %s, got %v", p, d[p].DeadAir)
		}
	}
}

// TestTransportResilienceSanity checks the recovery-pricing direction:
// under the same fault draws QUIC's cheap reconnects must not wait
// longer on handshakes than the TCP protocols, and every session must
// survive the mix.
func TestTransportResilienceSanity(t *testing.T) {
	points, err := TransportResilience(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d resilience points, want 3", len(points))
	}
	byProto := map[netsim.Protocol]TransportResiliencePoint{}
	for _, p := range points {
		if !p.Outcome.Result.Ended {
			t.Errorf("%s session did not survive the fault mix", p.Protocol)
		}
		if p.Outcome.Result.Transport == nil {
			t.Fatalf("%s session reported no transport stats", p.Protocol)
		}
		byProto[p.Protocol] = p
	}
	h1w := byProto[netsim.H1].Outcome.Result.Transport.HandshakeWait
	h3w := byProto[netsim.H3].Outcome.Result.Transport.HandshakeWait
	if h3w >= h1w {
		t.Errorf("h3 handshake wait %v not below h1's %v under identical faults", h3w, h1w)
	}
	serial, err := TransportResilience(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, points) {
		t.Fatal("transport resilience differs between serial and parallel runs")
	}
}
