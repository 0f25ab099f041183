package jointabr

import (
	"math"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// MPC is a model-predictive joint audio/video adapter in the style of
// Yin et al. [25 in the paper], lifted to the server-allowed combination
// list: at every chunk position it enumerates combination sequences over a
// lookahead horizon, simulates the buffer trajectory under the current
// bandwidth estimate, and commits the first step of the best sequence.
//
// The objective mirrors the QoE model: log-bitrate utility, minus a switch
// penalty on utility changes (both components move together in a
// combination switch), minus a heavy penalty on predicted rebuffering.
// Like the other players in this package it observes both streams through
// one shared meter and relies on chunk-synced scheduling.
type MPC struct {
	// Horizon is the lookahead depth in chunks (default 5).
	Horizon int
	// SwitchPenalty and RebufferPenalty weigh the objective (defaults 2
	// and 8 per second).
	SwitchPenalty   float64
	RebufferPenalty float64
	// DrainPenalty charges combinations whose predicted download time
	// exceeds the chunk duration (net buffer drain) per second of drain —
	// a sustainability bias that keeps the finite lookahead from riding an
	// unsustainable rung until the buffer collapses and oscillating.
	// Default 1.
	DrainPenalty float64

	allowed   []media.Combo
	utilities []float64
	meter     *estimator.GlobalMeter
	lastIdx   int

	// Per-decision tables, filled by decide and reused across decisions:
	// each combination's download and drain seconds for one chunk, the
	// N×N switch penalties (row = previous combination) and search's
	// pruning bound, one row of N per remaining depth.
	chunkSecs    float64
	downloadSecs []float64
	drainSecs    []float64
	switchCost   []float64
	bound        []float64
}

// NewMPC creates the adapter over the allowed combinations.
func NewMPC(allowed []media.Combo, horizon int) *MPC {
	if len(allowed) == 0 {
		panic("jointabr: empty allowed combination list")
	}
	if horizon <= 0 {
		horizon = 5
	}
	sorted := make([]media.Combo, len(allowed))
	copy(sorted, allowed)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j-1].DeclaredBitrate() > sorted[j].DeclaredBitrate(); j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	m := &MPC{
		Horizon:         horizon,
		SwitchPenalty:   2,
		RebufferPenalty: 8,
		DrainPenalty:    1,
		allowed:         sorted,
		meter:           estimator.NewGlobalMeter(),
		lastIdx:         -1,
	}
	m.utilities = make([]float64, len(sorted))
	base := math.Log(float64(sorted[0].DeclaredBitrate()))
	for i, cb := range sorted {
		m.utilities[i] = math.Log(float64(cb.DeclaredBitrate())) - base
	}
	return m
}

// Name implements abr.Algorithm.
func (m *MPC) Name() string { return "mpc-joint" }

// Allowed exposes the combination list.
func (m *MPC) Allowed() []media.Combo { return m.allowed }

// OnStart implements abr.Observer.
func (m *MPC) OnStart(ti abr.TransferInfo) { m.meter.TransferStart(ti.At) }

// OnProgress implements abr.Observer.
func (m *MPC) OnProgress(ti abr.TransferInfo) { m.meter.TransferBytes(ti.Bytes) }

// OnComplete implements abr.Observer.
func (m *MPC) OnComplete(ti abr.TransferInfo) { m.meter.TransferEnd(ti.At) }

// BandwidthEstimate implements abr.BandwidthReporter.
func (m *MPC) BandwidthEstimate() (media.Bps, bool) { return m.meter.Estimate() }

// SelectCombo implements abr.JointAlgorithm.
func (m *MPC) SelectCombo(st abr.State) media.Combo {
	est, ok := m.meter.Estimate()
	if !ok || est <= 0 {
		m.lastIdx = 0
		return m.allowed[0]
	}
	chunkSecs := st.ChunkDuration.Seconds()
	if chunkSecs <= 0 {
		chunkSecs = 5
	}
	bestIdx, _ := m.decide(st.MinBuffer().Seconds(), m.lastIdx, float64(est), chunkSecs)
	m.lastIdx = bestIdx
	return m.allowed[bestIdx]
}

// decide fills the per-decision tables and runs the lookahead from the
// given buffer and previous combination; it returns the best first step and
// its objective value. A Horizon below 1 searches one step.
func (m *MPC) decide(buffer float64, prevIdx int, est, chunkSecs float64) (int, float64) {
	n, depth := len(m.allowed), max(m.Horizon, 1)
	m.chunkSecs = chunkSecs
	m.downloadSecs = growTo(m.downloadSecs, n)
	m.drainSecs = growTo(m.drainSecs, n)
	for i, cb := range m.allowed {
		m.downloadSecs[i] = float64(cb.DeclaredBitrate()) * chunkSecs / est
		m.drainSecs[i] = m.downloadSecs[i] - chunkSecs
	}
	m.switchCost = growTo(m.switchCost, n*n)
	for p := range n {
		for i := range n {
			m.switchCost[p*n+i] = m.SwitchPenalty * math.Abs(m.utilities[i]-m.utilities[p])
		}
	}
	m.bound = growTo(m.bound, depth*n)
	if !penaltyBoundable(m.RebufferPenalty) || !penaltyBoundable(m.DrainPenalty) || !penaltyBoundable(m.SwitchPenalty) {
		for k := range m.bound {
			m.bound[k] = math.Inf(1)
		}
	} else {
		clear(m.bound[:n])
		for d := 1; d < depth; d++ {
			prev, cur := m.bound[(d-1)*n:d*n], m.bound[d*n:(d+1)*n]
			for p := range n {
				best := math.Inf(-1)
				for i := range n {
					if v := m.utilities[i] - m.switchCost[p*n+i] + prev[i]; v > best {
						best = v
					}
				}
				cur[p] = best
			}
		}
	}
	return m.search(buffer, prevIdx, depth, 0, math.Inf(-1))
}

// penaltyBoundable reports whether a penalty weight is finite and
// non-negative, the precondition for the search's pruning bound.
func penaltyBoundable(w float64) bool { return w >= 0 && !math.IsInf(w, 1) }

// growTo returns s resized to n elements, reusing its backing array.
func growTo(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// search scores combination sequences of the given depth from buffer and
// returns the best first step and its objective value, with the same
// first-maximum tie-break and the same floating-point result as scoring
// all N^depth sequences.
//
// It skips a child whose subtree cannot matter, using bound[(d-1)*N+i]: the
// best objective reachable in the d-1 steps after choosing i with every
// buffer penalty dropped, max over j of (u_j - switch(i,j)) + bound[d-2][j].
// Child i is skipped when its step value plus that bound does not beat the
// best sibling so far, or when, added to the parent's own step value
// plocal, it does not beat the parent's best so far pbest (one level of
// alpha pruning). Both skips are exact: round-to-nearest is monotone, and
// every dropped penalty subtracts a non-negative amount, so no subtree
// evaluated in floating point exceeds its bound, and a skipped child could
// never strictly beat the value it was compared with. The argument needs
// RebufferPenalty, DrainPenalty and SwitchPenalty finite and non-negative;
// otherwise decide sets every bound to +Inf and only children whose value
// is NaN or -Inf, which can never win, are skipped.
func (m *MPC) search(buffer float64, prevIdx, depth int, plocal, pbest float64) (int, float64) {
	n, chunkSecs := len(m.allowed), m.chunkSecs
	bound := m.bound[(depth-1)*n : depth*n]
	bestIdx, bestVal := 0, math.Inf(-1)
	for i := range n {
		downloadSecs := m.downloadSecs[i]
		b := buffer - downloadSecs
		rebuffer := 0.0
		if b < 0 {
			rebuffer = -b
			b = 0
		}
		b += chunkSecs
		val := m.utilities[i] - m.RebufferPenalty*rebuffer
		if drain := m.drainSecs[i]; drain > 0 {
			// Sustainability matters in proportion to how close the
			// projected buffer is to empty: with a deep buffer a transient
			// drain is exactly what the buffer is for.
			const comfort = 20.0 // seconds
			urgency := (comfort - b) / comfort
			if urgency > 0 {
				val -= m.DrainPenalty * drain * urgency
			}
		}
		if prevIdx >= 0 {
			val -= m.switchCost[prevIdx*n+i]
		}
		if reach := val + bound[i]; !(reach > bestVal) || !(plocal+reach > pbest) {
			continue
		}
		if depth > 1 {
			_, future := m.search(b, i, depth-1, val, bestVal)
			val += future
		}
		if val > bestVal {
			bestVal = val
			bestIdx = i
		}
	}
	return bestIdx, bestVal
}

// compile-time interface checks for all adapters in this package.
var (
	_ abr.JointAlgorithm    = (*Player)(nil)
	_ abr.JointAlgorithm    = (*BolaJoint)(nil)
	_ abr.JointAlgorithm    = (*MPC)(nil)
	_ abr.PerTypeAlgorithm  = (*Independent)(nil)
	_ abr.Abandoner         = (*Player)(nil)
	_ abr.BandwidthReporter = (*Player)(nil)
	_ abr.BandwidthReporter = (*BolaJoint)(nil)
	_ abr.BandwidthReporter = (*MPC)(nil)
)
