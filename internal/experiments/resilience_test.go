package experiments

import (
	"bytes"
	"testing"

	"demuxabr/internal/faults"
)

// TestPolicyResilienceAcceptance is the PR's headline claim: under 1%
// per-segment faults on the varying-600 trace, the best-practice player
// with the robustness policy completes with zero aborts, while the same
// player without it dies.
func TestPolicyResilienceAcceptance(t *testing.T) {
	on, off, err := PolicyResilience()
	if err != nil {
		t.Fatal(err)
	}
	if !on.Result.Ended || on.Result.Aborted {
		t.Fatalf("policy-on session did not complete: Ended=%v Aborted=%v (%s)",
			on.Result.Ended, on.Result.Aborted, on.Result.AbortReason)
	}
	if len(on.Result.Faults) == 0 {
		t.Fatal("policy-on session saw no faults — the comparison is vacuous; pick a different seed")
	}
	if !off.Result.Aborted {
		t.Fatalf("policy-off session survived the same fault sequence: Ended=%v faults=%d",
			off.Result.Ended, len(off.Result.Faults))
	}
}

func resilienceText(t *testing.T, parallel int) string {
	t.Helper()
	points, err := ResilienceSweep([]float64{0, 0.02}, parallel)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintResilience(&buf, points)
	return buf.String()
}

func TestResilienceSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full player sweep")
	}
	first := resilienceText(t, 1)
	if again := resilienceText(t, 1); again != first {
		t.Fatalf("serial resilience sweep not deterministic:\n%s\nvs\n%s", again, first)
	}
}

func TestResilienceSweepParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full player sweep")
	}
	serial := resilienceText(t, 1)
	if par := resilienceText(t, 4); par != serial {
		t.Fatalf("parallel resilience sweep diverged from serial:\n%s\nvs\n%s", par, serial)
	}
}

func TestResilienceSweepZeroRateCompletes(t *testing.T) {
	points, err := ResilienceSweep([]float64{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if !p.Outcome.Result.Ended || p.Outcome.Result.Aborted {
			t.Errorf("%s at rate 0 did not finish: Ended=%v Aborted=%v",
				p.Outcome.Model, p.Outcome.Result.Ended, p.Outcome.Result.Aborted)
		}
		// With no injected faults the only failures are the policy's own
		// request timeouts cancelling transfers stuck in trace troughs.
		for _, f := range p.Outcome.Result.Faults {
			if f.Kind != faults.Timeout {
				t.Errorf("%s at rate 0 recorded a %v fault", p.Outcome.Model, f.Kind)
			}
		}
	}
}
