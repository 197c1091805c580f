package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"github.com/flare-sim/flare/internal/cellsim"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
)

// engineShape is one workload's engine phase: jobs of `cells` cells,
// each simulated for simDur, run back to back until the phase ends.
type engineShape struct {
	cells int
	// workers is the inter-cell pool size; 1 runs the single cell
	// serially through NewInCell/Sim.Run instead of the pool.
	workers int
	simDur  time.Duration
	// checkedJobs is how many leading jobs feed video_qoe and the
	// printed digests. It is fixed, so both are a pure function of the
	// seed however many jobs the phase completes.
	checkedJobs int
	// config builds one cell's configuration from its seed.
	config func(seed uint64) (cellsim.Config, error)
}

// jobSeed derives the seed of cell `cell` in job `job` from the run
// seed, so every job simulates fresh inputs and a seed fixes them all.
func jobSeed(seed uint64, job, cell int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(job)*0xbf58476d1ce4e5b9 + uint64(cell)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb51c8a5c6b
	return x ^ x>>29
}

// engineJob is the outcome of one job.
type engineJob struct {
	res    *cellsim.MultiResult
	wall   time.Duration
	sinks  []*countingSink // trace mode only
	simsec float64
}

// jobConfigs builds the cells of job j. dur overrides the simulated
// duration (the fast-forward check runs a short prefix).
func (e engineShape) jobConfigs(seed uint64, j int, dur time.Duration, noFF bool) ([]cellsim.Config, error) {
	cfgs := make([]cellsim.Config, e.cells)
	for i := range cfgs {
		cfg, err := e.config(jobSeed(seed, j, i))
		if err != nil {
			return nil, err
		}
		cfg.Duration = dur
		cfg.DisableFastForward = noFF
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// run simulates one job. With traced set, every cell gets its own
// recorder streaming into a counting sink.
func (e engineShape) run(ctx context.Context, seed uint64, j int, dur time.Duration, noFF, traced bool) (engineJob, error) {
	cfgs, err := e.jobConfigs(seed, j, dur, noFF)
	if err != nil {
		return engineJob{}, err
	}
	var out engineJob
	if traced {
		out.sinks = make([]*countingSink, len(cfgs))
		for i := range cfgs {
			out.sinks[i] = newCountingSink()
			cfgs[i].Obs = obs.New(obs.Options{RingSize: -1, Sinks: []obs.Sink{out.sinks[i]}})
		}
	}
	start := time.Now()
	server := oneapi.NewServer(cfgs[0].Flare, nil)
	if e.workers == 1 && len(cfgs) == 1 {
		var s *cellsim.Sim
		if s, err = cellsim.NewInCell(cfgs[0], server, 0); err == nil {
			var r *cellsim.Result
			if r, err = s.RunContext(ctx); err == nil {
				out.res = &cellsim.MultiResult{Cells: []*cellsim.Result{r}}
			}
		}
	} else {
		out.res, err = cellsim.RunMultiConfig(ctx, cellsim.MultiConfig{Workers: e.workers}, server, cfgs...)
	}
	out.wall = time.Since(start)
	server.Close()
	out.simsec = float64(len(cfgs)) * dur.Seconds()
	if err != nil {
		return out, fmt.Errorf("job %d: %w", j, err)
	}
	return out, nil
}

// build constructs (and discards) one job's cells against a fresh
// shared server: the engine's part of the set-up time.
func (e engineShape) build(seed uint64) error {
	cfgs, err := e.jobConfigs(seed, 0, e.simDur, false)
	if err != nil {
		return err
	}
	server := oneapi.NewServer(cfgs[0].Flare, nil)
	defer server.Close()
	for i, cfg := range cfgs {
		if _, err := cellsim.NewInCell(cfg, server, i); err != nil {
			return fmt.Errorf("build cell %d: %w", i, err)
		}
	}
	return nil
}

// checkJob applies the per-job output checks: every client completed
// at least one segment. It returns the number of failed cells.
func checkJob(job engineJob, rep *report) int {
	failed := 0
	for i, r := range job.res.Cells {
		for _, c := range append(append([]cellsim.ClientResult(nil), r.Clients...), r.Legacy...) {
			if c.Segments < 1 {
				rep.problem("cell %d: client %d completed no segment", i, c.FlowID)
				failed++
				break
			}
		}
	}
	return failed
}

// cellDigest hashes every simulated statistic of one cell's Result:
// per-client rates, throughputs, switches, segments, stalls, start-up
// delay and QoE, the data flows' throughput, and the number of solves.
// Wall-clock fields (solve times) are left out, so the digest is a
// pure function of the cell's seed.
func cellDigest(r *cellsim.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, group := range [][]cellsim.ClientResult{r.Clients, r.Legacy} {
		put(float64(len(group)))
		for _, c := range group {
			put(float64(c.FlowID))
			put(c.AvgRateBps)
			put(c.AvgTputBps)
			put(float64(c.NumChanges))
			put(float64(c.Segments))
			put(c.StallSeconds)
			put(float64(c.StallCount))
			put(c.StartupDelaySeconds)
			put(c.QoEScore)
		}
	}
	for _, d := range r.Data {
		put(float64(d.FlowID))
		put(d.AvgTputBps)
	}
	put(float64(len(r.SolveTimesSec)))
	return h.Sum64()
}

// jobDigests returns one digest per cell of a job.
func jobDigests(res *cellsim.MultiResult) []uint64 {
	out := make([]uint64, len(res.Cells))
	for i, r := range res.Cells {
		out[i] = cellDigest(r)
	}
	return out
}

// engineStats is what the engine phase hands to the metric assembly.
type engineStats struct {
	cells      int
	qoe        []float64 // per-client QoE of the checked jobs
	workerSecs float64   // Σ wall × workers
	simsec     float64
	cpuSecs    float64
	mallocs    uint64
	wall       float64
	digests    [][]uint64      // per checked job, per cell
	sinks      []*countingSink // trace mode: every cell's sink
	durTTIs    int64           // simulated TTIs per cell
	spans      []span          // trace mode: job and solve spans
	traceOver  float64         // trace mode: traced/untraced wall - 1
}

// engineRun is a workload's engine phase. It runs in chunks between
// the control plane's closed-loop chunks, so its throughput samples
// the whole run, not one stretch of a host whose speed drifts.
type engineRun struct {
	ctx    context.Context
	e      engineShape
	seed   uint64
	traced bool
	rep    *report
	next   int // index of the next job
	st     engineStats
}

// startEngine checks the fast-forward kernel on a short prefix of job 0
// (and, traced, that tracing leaves the digests alone) and returns the
// phase, ready to run chunks. The checks are not timed.
func startEngine(ctx context.Context, e engineShape, seed uint64, traced bool, rep *report) *engineRun {
	r := &engineRun{ctx: ctx, e: e, seed: seed, traced: traced, rep: rep,
		st: engineStats{durTTIs: e.simDur.Milliseconds()}}

	// Fast-forward equivalence on a 10 s prefix of job 0, and (traced)
	// traced ≡ untraced digests with the tracing overhead.
	const prefix = 10 * time.Second
	ff, err1 := e.run(ctx, seed, 0, prefix, false, false)
	naive, err2 := e.run(ctx, seed, 0, prefix, true, false)
	rep.attempted += 2 * e.cells
	if err := errors.Join(err1, err2); err != nil {
		rep.failed += e.cells
		rep.problem("fast-forward check: %v", err)
	} else if !slices.Equal(jobDigests(ff.res), jobDigests(naive.res)) {
		rep.failed += e.cells
		rep.problem("fast-forward digest differs from DisableFastForward digest on the %v prefix", prefix)
	}
	if traced {
		var plain, tr float64
		for j := 0; j < 3; j++ {
			a, errA := e.run(ctx, seed, j, e.simDur, false, false)
			b, errB := e.run(ctx, seed, j, e.simDur, false, true)
			rep.attempted += 2 * e.cells
			if err := errors.Join(errA, errB); err != nil {
				rep.failed += e.cells
				rep.problem("traced/untraced check: %v", err)
				continue
			}
			if !slices.Equal(jobDigests(a.res), jobDigests(b.res)) {
				rep.failed += e.cells
				rep.problem("job %d: traced digest differs from untraced digest", j)
			}
			plain += a.wall.Seconds()
			tr += b.wall.Seconds()
		}
		r.st.traceOver = ratio(tr, plain) - 1
	}
	return r
}

// chunk runs jobs back to back for d of wall time, and on until job
// minJobs has been started, and returns its throughput: the chunk's
// simulated cell-seconds over its jobs' wall time (NaN if no job
// completed).
func (r *engineRun) chunk(d time.Duration, minJobs int) float64 {
	e, st, rep := r.e, &r.st, r.rep
	cpu0, mem0 := sampleProcess()
	var simsec, wall float64
	start := time.Now()
	deadline := start.Add(d)
	for r.next < minJobs || time.Now().Before(deadline) {
		j := r.next
		r.next++
		job, err := e.run(r.ctx, r.seed, j, e.simDur, false, r.traced)
		rep.attempted += e.cells
		if err != nil {
			rep.failed += e.cells
			rep.problem("engine %v", err)
			continue
		}
		rep.failed += checkJob(job, rep)
		st.cells += e.cells
		st.simsec += job.simsec
		simsec += job.simsec
		wall += job.wall.Seconds()
		st.workerSecs += job.wall.Seconds() * float64(min(e.workers, e.cells))
		if j < e.checkedJobs {
			st.digests = append(st.digests, jobDigests(job.res))
			for _, c := range job.res.Cells {
				for _, cl := range c.Clients {
					st.qoe = append(st.qoe, cl.QoEScore)
				}
			}
		}
		if r.traced {
			st.sinks = append(st.sinks, job.sinks...)
			st.spans = append(st.spans, jobSpans(job, min(e.workers, e.cells))...)
		}
	}
	st.wall += time.Since(start).Seconds()
	cpu1, mem1 := sampleProcess()
	st.cpuSecs += cpu1 - cpu0
	st.mallocs += mem1.Mallocs - mem0.Mallocs
	if wall == 0 {
		return math.NaN()
	}
	return simsec / wall
}
