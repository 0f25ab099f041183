// Command perfbench is the repository benchmark: it builds one of three
// seeded workloads, runs it through the simulator's public entry points
// (fleet.Run, core.Play) for a fixed host time, checks the simulated
// outputs against a digest, and prints host-cost metrics. With -trace 1 it
// instead replays the same inputs through its own runner, built from the
// program's public constructors, and reports per-layer counts and times.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it:
//
//	bash perfbench/run.sh --workload vod-fleet --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one seeded benchmark input set.
type workload interface {
	// sessions is the number of simulated sessions in one unit of work.
	sessions() int
	// warmup runs a small slice of the workload so lazily built tables
	// and caches are filled before anything is timed.
	warmup() error
	// run executes one unit through the program's public entry points
	// with par-way parallelism.
	run(par int) (unitResult, error)
	// replay executes the same unit through the benchmark's own runner,
	// recording per-layer spans and counts when traced is set.
	replay(par int, traced bool) (string, *tracer, error)
}

// unitResult is one unit's simulated-output digest, plus the CPU time of
// each session where sessions run one at a time.
type unitResult struct {
	digest     string
	sessionCPU []time.Duration
}

type workloadDef struct {
	name string
	// serial workloads time sessions one after another and check a
	// parallel run; fleets time nproc shards and check one shard.
	serial bool
	build  func(seed int64) (workload, error)
}

var workloadDefs = []workloadDef{
	{"vod-fleet", false, func(seed int64) (workload, error) {
		return &fleetWorkload{vodFleetConfig(seed, vodFleetSessions)}, nil
	}},
	{"solo-paper", true, func(seed int64) (workload, error) {
		return newSoloWorkload(seed)
	}},
	{"live-h2-faults", false, func(seed int64) (workload, error) {
		return &fleetWorkload{liveFleetConfig(seed, liveFleetSessions)}, nil
	}},
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 9

// recordedDigests maps workload → seed → the simulated-output digest this
// benchmark recorded for it (regenerate with -record).
//
//go:embed digests.json
var recordedDigests []byte

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: vod-fleet, solo-paper or live-h2-faults")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 replays the workload through the traced runner and reports per-layer metrics")
	record := flag.String("record", "", "print the output digests of these seeds (e.g. 0-9,7919) as JSON, for -workload or else every workload, then exit")
	flag.Parse()

	if *record != "" {
		return recordDigests(*record, *name)
	}
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == *name {
			def = &workloadDefs[i]
		}
	}
	if def == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (vod-fleet, solo-paper, live-h2-faults), -seconds > 0, -trace 0|1\n")
		return 2
	}
	var recorded map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: digests.json: %v\n", err)
		return 1
	}
	b := &bench{
		def:      def,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		nproc:    runtime.GOMAXPROCS(0),
		recorded: recorded[def.name][strconv.FormatInt(*seed, 10)],
	}
	if err := b.setup(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", def.name, err)
		return 1
	}
	var out result
	if *traceFlag == 1 {
		out = b.traced()
	} else {
		out = b.endToEnd()
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// add records a metric and prints it on its own line.
func (r *result) add(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{v, unit}
	fmt.Printf("%-40s %14.6g %s\n", name, v, unit)
}

type bench struct {
	def      *workloadDef
	seed     int64
	dur      time.Duration
	nproc    int
	recorded string

	w         workload
	setupS    float64
	rawSetupS float64
	shapeMs   float64
}

// timedPar is the parallelism of the timed runs; checkPar that of the
// equivalence check.
func (b *bench) timedPar() int {
	if b.def.serial {
		return 1
	}
	return b.nproc
}

func (b *bench) checkPar() int {
	if b.def.serial {
		return b.nproc
	}
	return 1
}

// setup builds the inputs from the seed and warms up, setupReps times.
// Each set-up is followed by a calibration, and its time is reported at the
// reference speed.
func (b *bench) setup() error {
	cal := newCalibState()
	var secs, raw, shape []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		w, err := b.def.build(b.seed)
		if err != nil {
			return err
		}
		if err := w.warmup(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		t := time.Since(start).Seconds()
		fWall, _ := scales(cal.measure())
		raw = append(raw, t)
		secs = append(secs, t*fWall)
		if s, ok := w.(*soloWorkload); ok {
			shape = append(shape, float64(s.shapeNs)/1e6)
		}
		b.w = w
	}
	b.setupS, b.rawSetupS = median(secs), median(raw)
	b.shapeMs = median(shape)
	return nil
}

// reference runs the check-parallelism unit and compares it with the
// recorded digest. It returns the reference digest and whether the
// outputs check out so far.
func (b *bench) reference(par int) (string, bool) {
	u, err := b.w.run(par)
	if err != nil {
		fmt.Printf("reference run (par %d) failed: %v\n", par, err)
		return "", false
	}
	switch {
	case b.recorded == "":
		fmt.Printf("digest %s (par %d; no recorded digest for seed %d)\n", u.digest, par, b.seed)
	case b.recorded == u.digest:
		fmt.Printf("digest %s (par %d) matches the recorded digest for seed %d\n", u.digest, par, b.seed)
	default:
		fmt.Printf("digest %s (par %d) DIFFERS from the recorded %s for seed %d\n", u.digest, par, b.recorded, b.seed)
		return u.digest, false
	}
	return u.digest, true
}

// endToEnd is the untraced run: repeat the unit through the program's
// entry points for the measuring time and report host costs. Rates are
// medians over reps, so a burst of interference from other tenants of the
// machine moves one rep, not the result. A calibration runs before the
// first rep and after every rep, and each rep's times are scaled to the
// reference speed by the mean of the calibrations on either side of it
// (see calib.go); the raw figures are printed too.
func (b *bench) endToEnd() result {
	ref, ok := b.reference(b.checkPar())
	par, n := b.timedPar(), b.w.sessions()
	cal := newCalibState()
	kWall0, kCPU0 := cal.measure()
	var out result
	var rate, cpuMs, rawRate, rawCPUMs, kernelMs, kernelCPUMs []float64
	// sessMs[i] is session i's CPU time in each rep. A fleet's sessions
	// share engines, so a fleet has no per-session CPU time and one entry
	// instead: each rep's CPU time spread over its sessions.
	var sessMs [][]float64
	ms0 := memStats()
	start := time.Now()
	for len(rate) == 0 || time.Since(start) < b.dur {
		c0, t0 := cpuTime(), time.Now()
		u, err := b.w.run(par)
		wall, cpu := time.Since(t0).Seconds(), cpuTime()-c0
		// Collect the rep's garbage first, so the program's GC work does
		// not run during the calibration.
		runtime.GC()
		kWall, kCPU := cal.measure()
		fWall, fCPU := scales((kWall0+kWall)/2, (kCPU0+kCPU)/2)
		kWall0, kCPU0 = kWall, kCPU
		kernelMs = append(kernelMs, float64(kWall)/1e6)
		kernelCPUMs = append(kernelCPUMs, float64(kCPU)/1e6)
		rawRate = append(rawRate, float64(n)/wall)
		rawCPUMs = append(rawCPUMs, cpu.Seconds()*1000/float64(n))
		rate = append(rate, float64(n)/(wall*fWall))
		cpuMs = append(cpuMs, cpu.Seconds()*1000/float64(n)*fCPU)
		out.Attempted += n
		switch {
		case err != nil:
			fmt.Printf("rep %d: %v\n", len(rate), err)
		case u.digest != ref:
			fmt.Printf("rep %d: digest %s differs from the par-%d reference\n", len(rate), u.digest, b.checkPar())
		}
		if err != nil || u.digest != ref || !ok {
			out.Failed += n
		}
		switch {
		case err != nil:
		case u.sessionCPU != nil:
			if sessMs == nil {
				sessMs = make([][]float64, len(u.sessionCPU))
			}
			for i, d := range u.sessionCPU {
				sessMs[i] = append(sessMs[i], float64(d)/1e6*fCPU)
			}
		default:
			if sessMs == nil {
				sessMs = make([][]float64, 1)
			}
			sessMs[0] = append(sessMs[0], cpuMs[len(cpuMs)-1])
		}
	}
	// Each session's time is its median over the reps, so a burst of
	// interference or a GC pause in one rep does not set a percentile; the
	// percentiles are then taken over the sessions of one unit.
	sessCPU := make([]float64, len(sessMs))
	for i, xs := range sessMs {
		sessCPU[i] = median(xs)
	}
	ms1 := memStats()
	out.Correct = out.Failed == 0
	fmt.Printf("%s seed %d: %d reps of %d sessions at par %d in %.2f s; session times: %d, each the median of its reps\n",
		b.def.name, b.seed, len(rate), n, par, time.Since(start).Seconds(), len(sessCPU))
	att := float64(out.Attempted)
	fmt.Printf("calibration kernel: median wall %.3f ms, CPU %.3f ms (reference %.0f ms of CPU); raw, unscaled: sessions_per_s %.6g, cpu_ms_per_session %.6g, setup_s %.6g\n",
		median(kernelMs), median(kernelCPUMs), float64(calibReference)/1e6, median(rawRate)*float64(out.Attempted-out.Failed)/att, median(rawCPUMs), b.rawSetupS)
	out.add("sessions_per_s", median(rate)*float64(out.Attempted-out.Failed)/att, "1/s")
	out.add("cpu_ms_per_session", median(cpuMs), "ms")
	out.add("session_cpu_ms_p50", percentile(sessCPU, 0.50), "ms")
	out.add("session_cpu_ms_p90", percentile(sessCPU, 0.90), "ms")
	out.add("allocs_per_session", float64(ms1.Mallocs-ms0.Mallocs)/att, "count")
	out.add("peak_rss_mb", peakRSSMB(), "MB")
	out.add("setup_s", b.setupS, "s")
	fmt.Printf("%-40s %14.6g share (%d of %d sessions)\n", "failed_frac", float64(out.Failed)/att, out.Failed, out.Attempted)
	return out
}

// traced is the per-layer run: alternate the untraced own runner, the
// traced own runner and the program's entry point until the measuring time
// is spent; every digest must agree with the entry point's.
func (b *bench) traced() result {
	par, n := b.timedPar(), b.w.sessions()
	var out result
	check := func(what, digest string, err error, ref string) {
		out.Attempted += n
		switch {
		case err != nil:
			fmt.Printf("%s: %v\n", what, err)
		case digest != ref:
			fmt.Printf("%s: digest %s differs from the entry point's %s\n", what, digest, ref)
		default:
			return
		}
		out.Failed += n
	}

	cpu0, ms0, t0 := cpuTime(), memStats(), time.Now()
	ref, refOK := b.reference(par)
	e2eCPU, e2eWall := cpuTime()-cpu0, time.Since(t0)
	ms1 := memStats()
	out.Attempted += n
	if !refOK {
		out.Failed += n
	}
	e2eReps := 1
	allocBytes := ms1.TotalAlloc - ms0.TotalAlloc
	gcCycles := ms1.NumGC - ms0.NumGC
	gcPause := ms1.PauseTotalNs - ms0.PauseTotalNs

	tr := &tracer{}
	var hostCPU [2][]float64 // untraced, traced runner CPU seconds per rep
	replay := func(traced bool) {
		c := cpuTime()
		d, t, err := b.w.replay(par, traced)
		i := 0
		if traced {
			i = 1
			if err == nil {
				tr.merge(t)
			}
		}
		hostCPU[i] = append(hostCPU[i], (cpuTime() - c).Seconds())
		check(fmt.Sprintf("runner (traced=%t)", traced), d, err, ref)
	}
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < b.dur; cycle++ {
		// Alternate which runner runs first, so neither side always
		// inherits the other's heap.
		first := cycle%2 == 1
		replay(first)
		replay(!first)

		c, ms0, t0 := cpuTime(), memStats(), time.Now()
		u, err := b.w.run(par)
		e2eCPU += cpuTime() - c
		e2eWall += time.Since(t0)
		ms1 := memStats()
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcCycles += ms1.NumGC - ms0.NumGC
		gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
		e2eReps++
		check("entry point", u.digest, err, ref)
	}
	out.Correct = out.Failed == 0
	fmt.Printf("%s seed %d: %d traced and %d untraced runner reps, %d entry-point reps, of %d sessions at par %d\n",
		b.def.name, b.seed, len(hostCPU[1]), len(hostCPU[0]), e2eReps, n, par)
	layerMetrics(&out, tr, b)

	e2eSessions := float64(e2eReps * n)
	out.add("fleet.cpu_util", e2eCPU.Seconds()/(e2eWall.Seconds()*float64(par)), "share")
	out.add("runtime.alloc_bytes_per_session", float64(allocBytes)/e2eSessions, "B")
	out.add("runtime.gc_cycles_per_1k_sessions", float64(gcCycles)*1000/e2eSessions, "count")
	out.add("runtime.gc_pause_ms", float64(gcPause)/1e6*1000/e2eSessions, "ms/1k_sessions")
	plain, traced := median(hostCPU[0]), median(hostCPU[1])
	out.add("trace.overhead_pct", 100*ratio(traced-plain, plain), "%")
	out.add("trace.overhead_ms_per_session", (traced-plain)*1000/float64(n), "ms")
	return out
}

// layerMetrics derives the per-layer metrics from the merged tracer.
func layerMetrics(out *result, t *tracer, b *bench) {
	sess := float64(t.sessions)
	per := func(x int64) float64 { return ratio(float64(x), sess) }
	us := func(ns, calls int64) float64 { return ratio(float64(ns)/1e3, float64(calls)) }
	out.add("netsim.events_per_session", per(t.events), "count")
	out.add("netsim.ns_per_event", ratio(float64(t.stepNs), float64(t.events)), "ns")
	out.add("netsim.self_ms_per_session", ratio(float64(t.stepNs-t.childNs)/1e6, sess), "ms")
	out.add("netsim.pending_max", float64(t.pendingMax), "count")
	out.add("abr.decide_calls_per_session", per(t.decideCalls), "count")
	out.add("abr.decide_us_per_session", ratio(float64(t.decideNs)/1e3, sess), "us")
	out.add("abr.progress_calls_per_session", per(t.progressCalls), "count")
	out.add("abr.progress_us_per_session", ratio(float64(t.progressNs)/1e3, sess), "us")
	out.add("abr.other_us_per_session", ratio(float64(t.otherNs)/1e3, sess), "us")
	out.add("abr.start_calls_per_session", per(t.startCalls), "count")
	out.add("abr.complete_calls_per_session", per(t.completeCalls), "count")
	out.add("abr.estimate_calls_per_session", per(t.estimateCalls), "count")
	out.add("abr.abandon_calls_per_session", per(t.abandonCalls), "count")
	out.add("manifest.build_model_us", us(t.buildNs, t.buildCalls), "us")
	out.add("qoe.compute_us", us(t.qoeNs, t.qoeCalls), "us")
	out.add("qoe.accumulate_ns", ratio(float64(t.accNs), float64(t.accCalls)), "ns")
	out.add("qoe.merge_us_per_cell", ratio(float64(t.mergeNs)/1e3, float64(t.cells)), "us")
	out.add("shaping.optimize_ms", b.shapeMs, "ms")
	out.add("player.start_us", us(t.playerStartNs, t.playerStarts), "us")
	out.add("player.requests_per_session", per(t.requests), "count")
	out.add("player.useful_request_ratio", ratio(float64(t.played), float64(t.requests)), "share")
	out.add("player.abandons_per_session", per(t.abandons), "count")
	out.add("player.retries_per_session", per(t.retries), "count")
	out.add("player.failovers_per_session", per(t.failovers), "count")
	out.add("faults.injected_per_session", per(t.faults), "count")
	out.add("transport.handshakes_per_session", per(t.handshakes), "count")
	out.add("transport.hol_stalls_per_session", per(t.holStalls), "count")
	out.add("cdnsim.requests_per_session", per(t.edgeCalls), "count")
	out.add("cdnsim.request_ns", ratio(float64(t.edgeNs), float64(t.edgeCalls)), "ns")
	out.add("cdnsim.byte_hit_ratio", t.cache.ByteHitRatio(), "share")
	out.add("timeline.events_per_sampled_session", ratio(float64(t.timelineEvents), float64(t.sampledSessions)), "count")
	cells := make([]float64, len(t.cellNs))
	for i, ns := range t.cellNs {
		cells[i] = float64(ns) / 1e6
	}
	out.add("fleet.cell_ms_p50", percentile(cells, 0.50), "ms")
	out.add("fleet.cell_ms_p90", percentile(cells, 0.90), "ms")
	out.add("input.sample_event_share", ratio(float64(t.progressCalls), float64(t.events)), "share")
	out.add("input.retry_request_share", ratio(float64(t.retries), float64(t.requests)), "share")
}

// recordDigests prints every workload's digest for each listed seed, after
// checking that the timed and the check parallelism agree.
func recordDigests(spec, only string) int {
	seeds, err := parseSeeds(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: -record: %v\n", err)
		return 2
	}
	nproc := runtime.GOMAXPROCS(0)
	out := map[string]map[string]string{}
	for _, def := range workloadDefs {
		if only != "" && def.name != only {
			continue
		}
		out[def.name] = map[string]string{}
		for _, seed := range seeds {
			w, err := def.build(seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", def.name, seed, err)
				return 1
			}
			a, errA := w.run(1)
			b, errB := w.run(nproc)
			if errA != nil || errB != nil || a.digest != b.digest {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: par 1 and par %d disagree (%v, %v)\n", def.name, seed, nproc, errA, errB)
				return 1
			}
			out[def.name][strconv.FormatInt(seed, 10)] = a.digest
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", def.name, seed, a.digest)
		}
	}
	js, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(js))
	return 0
}

// parseSeeds reads a comma-separated list of seeds and lo-hi ranges.
func parseSeeds(spec string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(spec, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, err
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return nil, err
			}
		}
		for s := a; s <= b; s++ {
			seeds = append(seeds, s)
		}
	}
	return seeds, nil
}

func cpuTime() time.Duration { return cpuClock(clockProcessCPUTime) }

// peakRSSMB is the process's peak resident set, VmHWM in
// /proc/self/status (getrusage's ru_maxrss would also count the shell that
// exec'd this binary).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// ratio is a/b, or 0 when the denominator (a count or a duration) is
// empty.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*p)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
