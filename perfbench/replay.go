package main

import (
	"time"

	"github.com/flare-sim/flare/internal/lte"
)

// bearerShape is an engine workload's cell as the lte layer sees it.
type bearerShape struct {
	videos, data int
	iTbs         int
}

// timedScheduler wraps a Scheduler and times every Allocate call.
type timedScheduler struct {
	inner lte.Scheduler
	ns    int64
	calls int64
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Allocate(tti int64, flows []*lte.FlowState, rbgSizes []int) {
	t0 := time.Now()
	s.inner.Allocate(tti, flows, rbgSizes)
	s.ns += time.Since(t0).Nanoseconds()
	s.calls++
}

// newReplayCell builds a cell of the shape with every bearer
// backlogged for the whole replay, so every TTI schedules every bearer
// (the cell-busy case). The video bearers' GBRs share half the cell's
// rate, an operating point FLARE's capacity margin keeps it under.
func newReplayCell(b bearerShape, sched lte.Scheduler) *lte.ENodeB {
	n := b.videos + b.data
	enb := lte.NewENodeB(lte.NewUniformStaticChannel(n, b.iTbs), sched)
	gbr := lte.CellRateBps(b.iTbs) / 2 / float64(max(b.videos, 1))
	for id := 0; id < n; id++ {
		br := &lte.Bearer{ID: id, UE: id, Class: lte.ClassData}
		if id < b.videos {
			br.Class, br.GBRBits = lte.ClassVideo, gbr
		}
		_, _ = enb.AddBearer(br) // UE ids are in range by construction
		br.Enqueue(1 << 40)
	}
	return enb
}

// replayStats are the lte per-layer numbers.
type replayStats struct {
	runTTINs, allocateNs float64
}

// replayLTE times ENodeB.RunTTI, and separately the scheduler's
// Allocate through timedScheduler, over batches of TTIs; each figure is
// the median batch's per-TTI time.
func replayLTE(b bearerShape) replayStats {
	const batches, perBatch = 31, 1000
	plain := newReplayCell(b, lte.TwoPhaseGBRScheduler{})
	ts := &timedScheduler{inner: lte.TwoPhaseGBRScheduler{}}
	timed := newReplayCell(b, ts)
	var run, alloc []float64
	tti := int64(0)
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		for k := int64(0); k < perBatch; k++ {
			plain.RunTTI(tti + k)
		}
		run = append(run, float64(time.Since(t0).Nanoseconds())/perBatch)
		ts.ns, ts.calls = 0, 0
		for k := int64(0); k < perBatch; k++ {
			timed.RunTTI(tti + k)
		}
		alloc = append(alloc, ratio(float64(ts.ns), float64(ts.calls)))
		tti += perBatch
	}
	return replayStats{runTTINs: median(run), allocateNs: median(alloc)}
}
