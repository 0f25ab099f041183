package jointabr

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/trace"
)

func feedMPC(m *MPC, bps float64, n int) {
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		m.OnStart(abr.TransferInfo{At: at})
		m.OnProgress(abr.TransferInfo{Bytes: bps / 8, Duration: time.Second})
		at += time.Second
		m.OnComplete(abr.TransferInfo{Duration: time.Second, At: at})
	}
}

func TestMPCStartsLowWithoutEstimate(t *testing.T) {
	c := media.DramaShow()
	m := NewMPC(media.HSub(c), 5)
	got := m.SelectCombo(abr.State{ChunkDuration: 5 * time.Second})
	if got.String() != "V1+A1" {
		t.Errorf("initial selection = %s, want V1+A1", got)
	}
}

func TestMPCMatchesBandwidth(t *testing.T) {
	c := media.DramaShow()
	m := NewMPC(media.HSub(c), 5)
	feedMPC(m, 1e6, 6)
	deep := m.SelectCombo(abr.State{
		VideoBuffer: 20 * time.Second, AudioBuffer: 20 * time.Second,
		ChunkDuration: 5 * time.Second,
	})
	// With a deep buffer MPC may ride the marginally-unsustainable V4+A2
	// (that is what the buffer is for) but no higher.
	if deep.String() != "V3+A2" && deep.String() != "V4+A2" {
		t.Errorf("deep-buffer selection at 1 Mbps = %s, want V3+A2 or V4+A2", deep)
	}
	// With a thin buffer the sustainability bias must hold it at V3+A2
	// (669 Kbps), the highest rung 1 Mbps sustains.
	m2 := NewMPC(media.HSub(c), 5)
	feedMPC(m2, 1e6, 6)
	thin := m2.SelectCombo(abr.State{
		VideoBuffer: 6 * time.Second, AudioBuffer: 6 * time.Second,
		ChunkDuration: 5 * time.Second,
	})
	if thin.String() != "V3+A2" {
		t.Errorf("thin-buffer selection at 1 Mbps = %s, want V3+A2", thin)
	}
}

func TestMPCAvoidsPredictedRebuffering(t *testing.T) {
	c := media.DramaShow()
	m := NewMPC(media.HSub(c), 5)
	feedMPC(m, 3e6, 6)
	// Ample bandwidth but an empty buffer: the lookahead must not jump to
	// a combination whose first download outruns the buffer by much.
	got := m.SelectCombo(abr.State{ChunkDuration: 5 * time.Second})
	if got.DeclaredBitrate() > media.Kbps(2300) {
		t.Errorf("empty-buffer selection = %s, too aggressive", got)
	}
	// With a deep buffer it can afford the top rung.
	got = m.SelectCombo(abr.State{
		VideoBuffer: 30 * time.Second, AudioBuffer: 30 * time.Second,
		ChunkDuration: 5 * time.Second,
	})
	if got.DeclaredBitrate() < media.Kbps(2000) {
		t.Errorf("deep-buffer selection = %s, too conservative at 3 Mbps", got)
	}
}

func TestMPCSelectsOnlyAllowed(t *testing.T) {
	c := media.DramaShow()
	allowed := media.HSub(c)
	m := NewMPC(allowed, 4)
	in := func(cb media.Combo) bool {
		for _, a := range allowed {
			if a.String() == cb.String() {
				return true
			}
		}
		return false
	}
	for _, bw := range []float64{200e3, 700e3, 1.5e6, 6e6} {
		feedMPC(m, bw, 4)
		for buf := time.Duration(0); buf <= 30*time.Second; buf += 10 * time.Second {
			got := m.SelectCombo(abr.State{VideoBuffer: buf, AudioBuffer: buf, ChunkDuration: 5 * time.Second})
			if !in(got) {
				t.Fatalf("selection %s not allowed (bw %v, buf %v)", got, bw, buf)
			}
		}
	}
}

func TestMPCEndToEnd(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(1300)))
	res, err := player.Run(link, player.Config{Content: c, Model: NewMPC(media.HSub(c), 5)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ended {
		t.Fatal("did not finish")
	}
	if res.RebufferTime() > 3*time.Second {
		t.Errorf("rebuffer = %v on a steady 1.3 Mbps link", res.RebufferTime())
	}
	if res.Switches(media.Video)+res.Switches(media.Audio) > 12 {
		t.Errorf("switch churn: %d/%d", res.Switches(media.Video), res.Switches(media.Audio))
	}
}

func TestMPCDefaults(t *testing.T) {
	c := media.DramaShow()
	m := NewMPC(media.HSub(c), 0)
	if m.Horizon != 5 || m.Name() != "mpc-joint" || len(m.Allowed()) != 6 {
		t.Errorf("defaults wrong: %+v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty allowed should panic")
		}
	}()
	NewMPC(nil, 5)
}

// exhaustiveSearch is the unpruned lookahead: it scores all N^depth
// combination sequences and keeps the first maximum. MPC.search must match
// it bit for bit. The switch term is rounded before it is subtracted, as
// the table in MPC.decide rounds it, so the two also agree on architectures
// that fuse multiply-add.
func exhaustiveSearch(m *MPC, buffer float64, prevIdx, depth int, est, chunkSecs float64) (int, float64) {
	bestIdx, bestVal := 0, math.Inf(-1)
	for i, cb := range m.allowed {
		downloadSecs := float64(cb.DeclaredBitrate()) * chunkSecs / est
		b := buffer - downloadSecs
		rebuffer := 0.0
		if b < 0 {
			rebuffer = -b
			b = 0
		}
		b += chunkSecs
		val := m.utilities[i] - m.RebufferPenalty*rebuffer
		if drain := downloadSecs - chunkSecs; drain > 0 {
			const comfort = 20.0 // seconds
			urgency := (comfort - b) / comfort
			if urgency > 0 {
				val -= m.DrainPenalty * drain * urgency
			}
		}
		if prevIdx >= 0 {
			val -= float64(m.SwitchPenalty * math.Abs(m.utilities[i]-m.utilities[prevIdx]))
		}
		if depth > 1 {
			_, future := exhaustiveSearch(m, b, i, depth-1, est, chunkSecs)
			val += future
		}
		if val > bestVal {
			bestVal = val
			bestIdx = i
		}
	}
	return bestIdx, bestVal
}

type namedLadder struct {
	name    string
	allowed []media.Combo
}

// mpcLadders is every combination list the media presets offer.
func mpcLadders() []namedLadder {
	var out []namedLadder
	for _, c := range []*media.Content{
		media.DramaShow(), media.DramaShowLowAudio(), media.DramaShowHighAudio(),
		media.MusicShow(), media.ActionMovie(), media.MultiLanguageShow(),
	} {
		out = append(out, namedLadder{c.Name + "/hsub", media.HSub(c)}, namedLadder{c.Name + "/hall", media.HAll(c)})
	}
	return out
}

// TestMPCSearchMatchesExhaustive checks the pruned lookahead against the
// exhaustive oracle on seeded random decisions: every preset ladder,
// estimates from 10 Kbps to 50 Mbps, buffers 0–60 s, chunks 1–8 s, every
// previous combination, horizons 0–6 and penalties that are zero, default,
// large, negative, +Inf or NaN. The chosen index and the root objective
// must be bit-identical.
func TestMPCSearchMatchesExhaustive(t *testing.T) {
	penalty := func(r *rand.Rand, def float64) float64 {
		switch r.IntN(8) {
		case 0:
			return 0
		case 1:
			return -r.Float64() * 4
		case 2:
			return math.Inf(1)
		case 3:
			return math.NaN()
		case 4:
			return 1e308
		case 5:
			return r.Float64() * 20
		default:
			return def
		}
	}
	trials := 200
	if testing.Short() {
		trials = 30
	}
	for li, l := range mpcLadders() {
		r := rand.New(rand.NewPCG(uint64(li), 0x5eed))
		m := NewMPC(l.allowed, 5)
		n := len(m.allowed)
		for trial := range trials {
			horizon := r.IntN(7)
			// Keep the oracle's N^H leaves affordable on the 18-rung lists.
			for math.Pow(float64(n), float64(horizon)) > 5e4 {
				horizon--
			}
			m.Horizon = horizon
			m.RebufferPenalty = penalty(r, 8)
			m.DrainPenalty = penalty(r, 1)
			m.SwitchPenalty = penalty(r, 2)
			est := math.Exp(math.Log(10e3) + r.Float64()*math.Log(50e6/10e3))
			if r.IntN(2) == 0 {
				est = math.Round(est) // the meter reports whole bits per second
			}
			buffer := r.Float64() * 60
			if r.IntN(4) == 0 {
				buffer = float64(r.IntN(13) * 5)
			}
			chunk := 1 + r.Float64()*7
			if r.IntN(2) == 0 {
				chunk = float64(1 + r.IntN(8))
			}
			prev := r.IntN(n+1) - 1
			wantIdx, wantVal := exhaustiveSearch(m, buffer, prev, max(horizon, 1), est, chunk)
			gotIdx, gotVal := m.decide(buffer, prev, est, chunk)
			if gotIdx != wantIdx || math.Float64bits(gotVal) != math.Float64bits(wantVal) {
				t.Fatalf("%s trial %d (H=%d prev=%d est=%v buf=%v chunk=%v pen=%v/%v/%v): pruned (%d, %v), exhaustive (%d, %v)",
					l.name, trial, horizon, prev, est, buffer, chunk,
					m.RebufferPenalty, m.DrainPenalty, m.SwitchPenalty, gotIdx, gotVal, wantIdx, wantVal)
			}
		}
	}
}

// With a buffer too deep to rebuffer or drain, no buffer penalty applies,
// so the lookahead's objective from any previous combination must equal the
// pruning bound exactly: the bound is the tightest one the exactness
// argument allows, not merely an upper bound.
func TestMPCBoundTightWithoutBufferPenalties(t *testing.T) {
	const horizon = 4
	for _, l := range mpcLadders() {
		m := NewMPC(l.allowed, horizon)
		for _, sw := range []float64{0, 0.5, 2, 7} {
			m.SwitchPenalty = sw
			m.decide(1e9, -1, 1e15, 4)
			n := len(m.allowed)
			for d := 1; d < horizon; d++ {
				for p := range n {
					_, got := m.search(1e9, p, d, 0, math.Inf(-1))
					if want := m.bound[d*n+p]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s switch %v: objective after %d from %d = %v, bound %v", l.name, sw, d, p, got, want)
					}
				}
			}
		}
	}
}

func TestMPCSelectComboAllocFree(t *testing.T) {
	c := media.DramaShow()
	m := NewMPC(media.HSub(c), 5)
	feedMPC(m, 1.5e6, 6)
	st := abr.State{VideoBuffer: 12 * time.Second, AudioBuffer: 10 * time.Second, ChunkDuration: 5 * time.Second}
	m.SelectCombo(st)
	if n := testing.AllocsPerRun(100, func() { m.SelectCombo(st) }); n != 0 {
		t.Errorf("warm SelectCombo allocates %v times, want 0", n)
	}
}

// BenchmarkMPCSelectCombo times one H_sub decision at the default horizon:
// thin and deep buffers against a low and a high bandwidth estimate.
func BenchmarkMPCSelectCombo(b *testing.B) {
	c := media.DramaShow()
	for _, buf := range []time.Duration{4 * time.Second, 30 * time.Second} {
		for _, bps := range []float64{800e3, 5e6} {
			b.Run(fmt.Sprintf("buffer-%ds/est-%dk", int(buf.Seconds()), int(bps/1e3)), func(b *testing.B) {
				m := NewMPC(media.HSub(c), 5)
				feedMPC(m, bps, 6)
				st := abr.State{VideoBuffer: buf, AudioBuffer: buf, ChunkDuration: 5 * time.Second}
				m.SelectCombo(st) // fill the reused tables
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.lastIdx = 2
					m.SelectCombo(st)
				}
			})
		}
	}
}
