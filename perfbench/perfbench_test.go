package main

import (
	"encoding/json"
	"runtime"
	"strconv"
	"testing"

	"demuxabr/internal/abr"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
)

// TestDecoratorParity checks, for every player kind, that the traced
// decorator implements exactly the optional interfaces the bare model does:
// player.Start type-asserts all four, so a dropped Abandoner would silently
// switch abandonment off in the traced run.
func TestDecoratorParity(t *testing.T) {
	type ifaces struct{ joint, perType, abandoner, reporter bool }
	of := func(m abr.Algorithm) ifaces {
		var s ifaces
		_, s.joint = m.(abr.JointAlgorithm)
		_, s.perType = m.(abr.PerTypeAlgorithm)
		_, s.abandoner = m.(abr.Abandoner)
		_, s.reporter = m.(abr.BandwidthReporter)
		return s
	}
	kinds := core.PlayerKinds()
	if len(kinds) != 14 {
		t.Errorf("core.PlayerKinds has %d kinds, this test was written for 14", len(kinds))
	}
	for _, k := range kinds {
		m, _, err := core.BuildModel(k, media.DramaShow(), core.ManifestOptions{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		w := wrapModel(m, &tracer{})
		if got, want := of(w), of(m); got != want {
			t.Errorf("%s: decorator implements %+v, model %+v", k, got, want)
		}
		if w.Name() != m.Name() {
			t.Errorf("%s: decorator name %q, model %q", k, w.Name(), m.Name())
		}
	}
}

// TestSoloRunnerMatchesCorePlay checks that the benchmark's mirror of
// core.Play, traced and untraced, produces core.Play's outputs, on every VOD
// kind over two profiles and both content preparations.
func TestSoloRunnerMatchesCorePlay(t *testing.T) {
	full, err := newSoloWorkload(3)
	if err != nil {
		t.Fatal(err)
	}
	w := &soloWorkload{}
	for _, s := range full.list {
		if s.profileName == "fig4b" || s.profileName == "lte" {
			w.list = append(w.list, s)
		}
	}
	ref, err := w.run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := w.run(runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if par.digest != ref.digest {
		t.Errorf("parallel core.Play digest %s, serial %s", par.digest, ref.digest)
	}
	for _, traced := range []bool{false, true} {
		d, tr, err := w.replay(1, traced)
		if err != nil {
			t.Fatal(err)
		}
		if d != ref.digest {
			t.Errorf("runner (traced=%t) digest %s, core.Play %s", traced, d, ref.digest)
		}
		if traced && tr.sessions != int64(len(w.list)) {
			t.Errorf("tracer saw %d sessions, want %d", tr.sessions, len(w.list))
		}
	}
}

// TestFleetRunnerMatchesFleetRun checks that the benchmark's cell runner,
// traced and untraced and at any shard count, reproduces fleet.Run's report
// for both fleet workloads.
func TestFleetRunnerMatchesFleetRun(t *testing.T) {
	for name, w := range map[string]*fleetWorkload{
		"vod":  {vodFleetConfig(5, 48)},
		"live": {liveFleetConfig(5, 48)},
	} {
		ref, err := w.run(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		par, err := w.run(2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if par.digest != ref.digest {
			t.Errorf("%s: fleet.Run digest differs between 1 and 2 shards", name)
		}
		for _, shards := range []int{1, 2} {
			for _, traced := range []bool{false, true} {
				d, tr, err := w.replay(shards, traced)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d != ref.digest {
					t.Errorf("%s: runner (shards=%d traced=%t) digest %s, fleet.Run %s", name, shards, traced, d, ref.digest)
				}
				if traced && (tr.sessions != 48 || tr.cells != 3) {
					t.Errorf("%s: tracer saw %d sessions in %d cells, want 48 in 3", name, tr.sessions, tr.cells)
				}
			}
		}
	}
}

// TestRecordedDigests replays one recorded seed per workload through the
// program's entry points.
func TestRecordedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full unit of every workload")
	}
	var recorded map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
		t.Fatal(err)
	}
	const seed = 1
	for _, def := range workloadDefs {
		want := recorded[def.name][strconv.Itoa(seed)]
		if want == "" {
			t.Errorf("%s: no recorded digest for seed %d", def.name, seed)
			continue
		}
		w, err := def.build(seed)
		if err != nil {
			t.Fatal(err)
		}
		u, err := w.run(runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatal(err)
		}
		if u.digest != want {
			t.Errorf("%s seed %d: digest %s, recorded %s", def.name, seed, u.digest, want)
		}
	}
}
