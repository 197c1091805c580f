// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one named workload:
//
//	perfbench --workload cell-busy --seed 1 --seconds 30 --trace 0
//
// It measures for --seconds, checks the program's outputs, prints the
// environment, every metric by name with its unit and sample count,
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics with tracing
// off; --trace 1 is a separate, instrumented run that reports the
// per-layer metrics. See README.md for the metric -> layer -> workload
// map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/flare-sim/flare/internal/benchmarks"
	"github.com/flare-sim/flare/internal/buildinfo"
	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/flaresuite"
)

// epoch is the time base of every recorded timestamp.
var epoch = time.Now()

func now() int64 { return time.Since(epoch).Nanoseconds() }

// latencyLimit is the open-loop report p99 limit: one twentieth of the
// BAI. A run above it, or whose generator falls behind, is invalid.
const latencyLimit = bai / 20

// roundLen is the length a run's rounds aim at; see measure.
const roundLen = 1500 * time.Millisecond

// setupsPerRound is how many extra set-ups each round builds and
// discards; setup_s is the median of them all and the first.
const setupsPerRound = 2

// latencySlices is how many equal time slices a load phase is cut
// into; a reported latency percentile is the median of the slices'.
const latencySlices = 6

// workload is one named input set. Every workload runs the engine on
// its cell shape, and the HTTP control plane in an open and a closed
// loop on a population of such cells, in the shares of --seconds given
// here, so every metric is measured on every workload.
type workload struct {
	name    string
	engine  engineShape
	bearers bearerShape
	plane   planeShape
	// Shares of --seconds: engine phase, open-loop and closed-loop
	// plane phases.
	engineShare, openShare, closedShare float64
}

// suiteCell builds one cell at a flaresuite axis point.
func suiteCell(axes flaresuite.Axes) func(uint64) (cellsim.Config, error) {
	return func(seed uint64) (cellsim.Config, error) {
		cfg, err := flaresuite.BuildConfig(axes, flaresuite.QuickScale())
		cfg.Seed = seed
		return cfg, err
	}
}

var workloads = []workload{
	{
		name: "cell-busy",
		engine: engineShape{cells: 1, workers: 1, simDur: 30 * time.Second, checkedJobs: 192,
			config: func(seed uint64) (cellsim.Config, error) { return benchmarks.EngineTickConfig(seed), nil }},
		bearers:     bearerShape{videos: 16, data: 4, iTbs: 12},
		plane:       planeShape{cells: 150, sessions: 16, dataFlows: 4, steady: true},
		engineShare: 0.6, openShare: 0.25, closedShare: 0.15,
	},
	{
		name: "metro-mobile",
		engine: engineShape{cells: 16, workers: 2, simDur: 60 * time.Second, checkedJobs: 4,
			config: suiteCell(flaresuite.Axes{Channel: flaresuite.ChannelVehicular, Mix: flaresuite.MixFLAREFESTIVE})},
		bearers:     bearerShape{videos: 8, iTbs: 12},
		plane:       planeShape{cells: 200, sessions: 4, dataFlows: 4},
		engineShare: 0.45, openShare: 0.35, closedShare: 0.2,
	},
	{
		name: "plane-http",
		engine: engineShape{cells: 1, workers: 1, simDur: 60 * time.Second, checkedJobs: 256,
			config: suiteCell(flaresuite.Axes{Channel: flaresuite.ChannelVehicular, Videos: 16})},
		bearers:     bearerShape{videos: 16, iTbs: 12},
		plane:       planeShape{cells: 200, sessions: 16},
		engineShare: 0.25, openShare: 0.45, closedShare: 0.3,
	},
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpecs reads the metric lists from BENCHMARK.json, the one place
// that names them.
func loadSpecs(path string) (endToEnd, perLayer []metricSpec, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, spec.PerLayer, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, counts and check failures.
type report struct {
	attempted, failed int
	values            map[string]float64
	counts            map[string]int // sample count behind a percentile
	invalid           []string       // run-level conditions that void the result

	mu        sync.Mutex
	problems  []string
	nProblems int
}

func (r *report) set(name string, v float64)         { r.values[name] = v }
func (r *report) setN(name string, v float64, n int) { r.values[name] = v; r.counts[name] = n }

// problem records a failed output check; the first few are printed.
func (r *report) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nProblems++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload: cell-busy, metro-mobile or plane-http")
	seed := fset.Uint64("seed", 1, "workload seed")
	seconds := fset.Int("seconds", 30, "measured seconds")
	trace := fset.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (cell-busy|metro-mobile|plane-http), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	w := workloads[i]
	traced := *trace == 1
	specs, perLayer, err := loadSpecs("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		return 2
	}
	if traced {
		specs = perLayer
	}

	printEnv(stdout)
	rep := &report{values: make(map[string]float64), counts: make(map[string]int)}
	if err := measure(w, *seed, time.Duration(*seconds)*time.Second, traced, rep, stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metric)}
	for _, s := range specs {
		v, ok := rep.values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.invalid = append(rep.invalid, fmt.Sprintf("metric %s was not measured", s.Name))
			v = 0
		}
		out.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
		if n, ok := rep.counts[s.Name]; ok {
			fmt.Fprintf(stdout, "metric %-34s %14.6f %-9s n=%d\n", s.Name, v, s.Unit, n)
		} else {
			fmt.Fprintf(stdout, "metric %-34s %14.6f %s\n", s.Name, v, s.Unit)
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "problem: %s\n", p)
	}
	if rep.nProblems > len(rep.problems) {
		fmt.Fprintf(stdout, "problem: ... %d more\n", rep.nProblems-len(rep.problems))
	}
	for _, s := range rep.invalid {
		fmt.Fprintf(stdout, "invalid: %s\n", s)
	}
	out.Correct = rep.failed == 0 && rep.nProblems == 0 && len(rep.invalid) == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs the workload's phases and fills rep.
//
// The host's speed drifts over seconds, so the phases that report a
// throughput are not run as one stretch each: after the first set-up,
// the run is cut into rounds of about roundLen, and every round does
// setupsPerRound set-ups, an engine chunk and a closed-loop chunk, in
// the workload's shares, with a measure of the host's speed on either
// side of each chunk (see reference.go). The open loop, which keeps a timetable,
// runs as one stretch in the middle. The throughputs are medians over
// the rounds of each chunk's rate per reference unit, and setup_s the
// median of every set-up.
func measure(w workload, seed uint64, total time.Duration, traced bool, rep *report, stdout io.Writer) error {
	ctx := context.Background()
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }

	// Set-up: the engine's cell build and the control plane (server,
	// listener, sessions, warm connections).
	var setups []float64
	setup := func() (*plane, error) {
		t0 := time.Now()
		if err := w.engine.build(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p, err := newPlane(seed, w.plane, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return p, nil
	}
	p, err := setup()
	if err != nil {
		return err
	}
	defer p.close()

	_, mem0 := sampleProcess()
	eng := startEngine(ctx, w.engine, seed, traced, rep)
	rest := share(w.engineShare + w.closedShare)
	rounds := max(1, int(rest/roundLen))
	engineChunk := share(w.engineShare) / time.Duration(rounds)
	closedChunk := share(w.closedShare) / time.Duration(rounds)

	// Latencies come from the open loop, timed from when each request
	// was due; capacity from the closed loop.
	var open *latencyLog
	// Per round: the chunks' rates, and the host reference measured on
	// either side of each chunk, averaged.
	var rates, capacity, engineRefs, closedRefs, refs []float64
	host := newReference()
	ref := func() float64 {
		v := host.rate(refLen)
		refs = append(refs, v)
		return v
	}
	var planeCPU float64
	var planeMallocs uint64
	all := newLatencyLog(0, 1, traced) // both loops: request counts, traced pairing
	timePlane := func(run func()) {
		cpu0, m0 := sampleProcess()
		run()
		cpu1, m1 := sampleProcess()
		planeCPU += cpu1 - cpu0
		planeMallocs += m1.Mallocs - m0.Mallocs
	}
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			timePlane(func() { open = p.openLoop(share(w.openShare), rep) })
			all.merge(open)
		}
		for k := 0; k < setupsPerRound; k++ {
			q, err := setup()
			if err != nil {
				return err
			}
			q.close()
		}
		minJobs := 0
		if r == rounds-1 { // a run too short for the checked jobs runs them here
			minJobs = w.engine.checkedJobs
		}
		runtime.GC() // each chunk pays for its own garbage, not the last phase's
		before := ref()
		rates = append(rates, eng.chunk(engineChunk, minJobs))
		between := ref()
		runtime.GC()
		timePlane(func() {
			closed, c := p.closedLoop(closedChunk, rep)
			all.merge(closed)
			capacity = append(capacity, c)
		})
		after := ref()
		engineRefs = append(engineRefs, (before+between)/2)
		closedRefs = append(closedRefs, (between+after)/2)
	}
	_, mem1 := sampleProcess()
	st := eng.st
	printDigests(stdout, w.name, seed, st.digests)
	rep.attempted += all.attempted
	rep.failed += all.failed
	rep.setN("setup_s", median(setups), len(setups))

	// End-to-end metrics.
	simPerRef, capPerRef := perRef(rates, engineRefs), perRef(capacity, closedRefs)
	rep.setN("simsec_per_ref", median(simPerRef), len(simPerRef))
	rep.set("video_qoe", mean(st.qoe))
	rep.setN("capacity_rounds_per_ref", median(capPerRef), len(capPerRef))
	for _, q := range []struct {
		prefix string
		kind   reqKind
		tail   float64
	}{{"report", kindReport, 0.99}, {"poll", kindPoll, 0.99}, {"session", kindOpen, 0.90}} {
		v, n := open.latency(q.kind, 0.5)
		rep.setN(q.prefix+"_p50_ms", v, n)
		v, n = open.latency(q.kind, q.tail)
		rep.setN(fmt.Sprintf("%s_p%d_ms", q.prefix, int(q.tail*100)), v, n)
	}
	checkOpenLoop(open, rep)
	rep.set("peak_rss_mb", peakRSSMiB())

	// Per-layer metrics. The raw rates are printed on every run.
	rates = slices.DeleteFunc(rates, math.IsNaN)
	rep.setN("simsec_per_s", median(rates), len(rates))
	rep.setN("capacity_rounds_per_s", median(capacity), len(capacity))
	rep.setN("host.ref_per_s", median(refs), len(refs))
	fmt.Fprintf(stdout, "raw medians over %d rounds: simsec_per_s %.1f capacity_rounds_per_s %.1f host.ref_per_s %.1f\n",
		len(capacity), rep.values["simsec_per_s"], rep.values["capacity_rounds_per_s"], rep.values["host.ref_per_s"])
	rep.set("sim.pool_cpu_util", ratio(st.cpuSecs, st.wall*float64(min(w.engine.workers, w.engine.cells))))
	rep.set("runtime.allocs_per_simsec", ratio(float64(st.mallocs), st.simsec))
	rep.set("runtime.allocs_per_request", ratio(float64(planeMallocs), float64(all.attempted)))
	rep.set("runtime.gc_pause_s", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e9)
	rep.set("runtime.gc_cycles", float64(mem1.NumGC-mem0.NumGC-(mem1.NumForcedGC-mem0.NumForcedGC)))
	waits := open.allWaits()
	slices.Sort(waits)
	rep.setN("loadgen.wait_p50_ms", sortedQuantile(waits, 0.5), len(waits))
	rep.setN("loadgen.wait_p99_ms", sortedQuantile(waits, 0.99), len(waits))
	rep.set("loadgen.late_max_ms", maxOf(waits))
	rep.set("failed_share", ratio(float64(rep.failed), float64(rep.attempted)))
	if traced {
		layerMetrics(w, st, p, all.samples, planeCPU, rep, stdout)
	}
	return nil
}

// checkOpenLoop voids the run when the open loop missed its latency
// limit or its generator fell behind: the median wait in each of the
// last two time slices of the loop must stay under a tenth of the
// limit.
func checkOpenLoop(open *latencyLog, rep *report) {
	if p99, _ := open.latency(kindReport, 0.99); !(p99 <= float64(latencyLimit)/1e6) {
		rep.invalid = append(rep.invalid, fmt.Sprintf("open-loop report p99 %.1f ms exceeds the %v limit", p99, latencyLimit))
	}
	behind := 0
	for _, w := range open.wait[latencySlices-2:] {
		if quantile(widen(w), 0.5) > float64(latencyLimit/10)/1e6 {
			behind++
		}
	}
	if behind == 2 {
		rep.invalid = append(rep.invalid, fmt.Sprintf("generator backlog: median wait above %v in the last two slices", latencyLimit/10))
	}
}

// layerMetrics fills the per-layer metrics that need the trace.
func layerMetrics(w workload, eng engineStats, p *plane, all []sample, planeCPU float64, rep *report, stdout io.Writer) {
	var events, skipped, changed int64
	var solves []float64 // µs
	var engineSolveNs int64
	for _, s := range eng.sinks {
		events += s.events
		skipped += s.skippedTTIs
		changed += int64(len(s.changed))
		for _, d := range s.solves {
			solves = append(solves, float64(d)/1e3)
			engineSolveNs += d
		}
	}
	ps := p.tracer.sink
	events += ps.events
	changed += int64(len(ps.changed))
	var planeSolveNs int64
	for _, d := range ps.solves {
		solves = append(solves, float64(d)/1e3)
		planeSolveNs += d
	}
	total := int64(eng.cells) * eng.durTTIs
	stepped := total - skipped
	selfS := eng.workerSecs - float64(engineSolveNs)/1e9
	lteStats := replayLTE(w.bearers)

	rep.set("cellsim.ttis_stepped", float64(stepped))
	rep.set("cellsim.ff_share", ratio(float64(skipped), float64(total)))
	rep.set("cellsim.self_s", selfS)
	rep.set("cellsim.host_ns_per_stepped_tti", ratio(selfS*1e9, float64(stepped)))
	rep.set("cellsim.residual_s", selfS-float64(stepped)*lteStats.runTTINs/1e9)
	slices.Sort(solves)
	rep.set("core.solves", float64(len(solves)))
	rep.setN("core.solve_p50_us", sortedQuantile(solves, 0.5), len(solves))
	rep.setN("core.solve_p99_us", sortedQuantile(solves, 0.99), len(solves))
	rep.set("core.solve_share", ratio(float64(engineSolveNs+planeSolveNs)/1e9, eng.cpuSecs+planeCPU))
	rep.set("core.unchanged_share", ratio(float64(int64(len(solves))-changed), float64(len(solves))))
	rep.set("lte.run_tti_ns", lteStats.runTTINs)
	rep.set("lte.allocate_ns", lteStats.allocateNs)
	rep.set("lte.tick_ns", lteStats.runTTINs-lteStats.allocateNs)

	// Pair every client span with its handler span, and every report
	// handler span with its solve.
	t := p.tracer
	handler := make([][]float64, numKinds)
	wire := make([][]float64, numKinds)
	var nonsolve []float64
	spans := eng.spans
	for _, s := range all {
		h, ok := t.handlers[s.id]
		if !ok || !s.ok {
			continue
		}
		hd := float64(h[1]-h[0]) / 1e3
		handler[s.kind] = append(handler[s.kind], hd)
		wire[s.kind] = append(wire[s.kind], float64(s.done-s.sent)/1e3-hd)
		client := span{ID: nextSpanID(), Name: "client." + kindNames[s.kind],
			Start: s.sent, End: s.done, Dur: s.done - s.sent}
		hs := span{ID: nextSpanID(), Parent: client.ID, Name: "oneapi.handler", Start: h[0], End: h[1], Dur: h[1] - h[0]}
		spans = append(spans, client, hs)
		if d, ok := ps.solves[cellSeq{s.cell, s.baiSeq}]; ok && s.kind == kindReport {
			nonsolve = append(nonsolve, hd-float64(d)/1e3)
			spans = append(spans, span{ID: nextSpanID(), Parent: hs.ID, Name: "core.solve", Start: -1, End: -1, Dur: d})
		}
	}
	sessions := append(handler[kindClose], handler[kindOpen]...)
	for _, m := range []struct {
		name string
		v    []float64
		q    float64
	}{
		{"oneapi.report_handler_p50_us", handler[kindReport], 0.5},
		{"oneapi.report_handler_p99_us", handler[kindReport], 0.99},
		{"oneapi.poll_handler_p50_us", handler[kindPoll], 0.5},
		{"oneapi.poll_handler_p99_us", handler[kindPoll], 0.99},
		{"oneapi.session_handler_p50_us", sessions, 0.5},
		{"oneapi.report_nonsolve_us", nonsolve, 0.5},
		{"http.report_wire_us", wire[kindReport], 0.5},
		{"http.poll_wire_us", wire[kindPoll], 0.5},
	} {
		rep.setN(m.name, quantile(m.v, m.q), len(m.v))
	}
	rep.set("oneapi.status_4xx", float64(t.status4.Load()))
	rep.set("oneapi.status_5xx", float64(t.status5.Load()))
	rep.set("obs.events", float64(events))
	rep.set("trace.overhead_share", eng.traceOver)

	path, err := writeSpans(filepath.Join(".bench_build", "spans"), w.name, spans)
	if err != nil {
		rep.problem("write spans: %v", err)
		return
	}
	fmt.Fprintf(stdout, "trace: %d spans -> %s\n", len(spans), path)
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "trace: self time %-16s %10.4f s\n", name, float64(self[name])/1e9)
	}
	var client, hsum, wsum float64
	for kind := range handler {
		hsum += sum(handler[kind])
		wsum += sum(wire[kind])
	}
	for _, s := range all {
		if _, ok := t.handlers[s.id]; ok && s.ok {
			client += float64(s.done-s.sent) / 1e3
		}
	}
	fmt.Fprintf(stdout, "trace: engine worker time %.4f s = cellsim self %.4f s + solve %.4f s\n",
		eng.workerSecs, selfS, float64(engineSolveNs)/1e9)
	fmt.Fprintf(stdout, "trace: client request time %.4f s = handler %.4f s + wire %.4f s\n", client/1e6, hsum/1e6, wsum/1e6)
}

// printDigests prints one digest per simulated cell of the checked
// jobs, and one over all of them.
func printDigests(stdout io.Writer, name string, seed uint64, digests [][]uint64) {
	all := fnv.New64a()
	for j, job := range digests {
		for i, d := range job {
			fmt.Fprintf(stdout, "digest %s seed=%d job=%d cell=%d %016x\n", name, seed, j, i, d)
			fmt.Fprintf(all, "%016x", d)
		}
	}
	fmt.Fprintf(stdout, "digest %s seed=%d all %016x\n", name, seed, all.Sum64())
}

// printEnv prints the environment block every output carries.
func printEnv(stdout io.Writer) {
	env := map[string]any{
		"cpu":        benchmarks.CPUModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     buildinfo.Version(),
		"source":     sourceDigest("."),
	}
	line, _ := json.Marshal(env) // a map of strings and ints always encodes
	fmt.Fprintf(stdout, "env %s\n", line)
}

// sourceDigest identifies the source tree being measured when no VCS
// revision is stamped: a SHA-256 over the paths and contents of every
// Go source and go.mod file under root, skipping dot directories.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
