package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/flare-sim/flare/internal/obs"
)

// cellSeq names one BAI of one cell.
type cellSeq struct {
	cell int32
	seq  int64
}

// countingSink is the benchmark's obs.Sink for traced runs: it keeps
// counts and the few fields the per-layer metrics need, never the
// events themselves. The recorder calls Write under its own lock, so
// the sink needs none.
type countingSink struct {
	events      int64
	solves      map[cellSeq]int64 // bai_solve: solver wall time, ns
	changed     map[cellSeq]bool  // BAIs in which a clamp moved a level
	skippedTTIs int64             // fast_forward: TTIs jumped over
}

func newCountingSink() *countingSink {
	return &countingSink{solves: make(map[cellSeq]int64), changed: make(map[cellSeq]bool)}
}

func (s *countingSink) Write(e *obs.Event) error {
	s.events++
	switch e.Kind {
	case obs.KindBAISolve:
		s.solves[cellSeq{e.Cell, e.Seq}] = e.DurNs
	case obs.KindClamp:
		if e.Level != e.Prev {
			s.changed[cellSeq{e.Cell, e.Seq}] = true
		}
	case obs.KindFastForward:
		s.skippedTTIs += e.To - e.TTI
	}
	return nil
}

func (s *countingSink) Close() error { return nil }

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the process epoch. Dur is the time the span held:
// End-Start, except for an engine job on the inter-cell pool, which
// holds End-Start on each of its workers. A child whose wall-clock
// start the program does not expose (a solve) has Start and End -1
// and carries only its duration.
type span struct {
	ID     int64
	Parent int64 // 0 = root
	Name   string
	Start  int64
	End    int64
	Dur    int64
}

// spanIDs hands out span identifiers, unique within one run.
var spanIDs int64

func nextSpanID() int64 {
	spanIDs++
	return spanIDs
}

// jobSpans returns an engine job's span and its solve children.
func jobSpans(job engineJob, workers int) []span {
	end := now()
	root := span{ID: nextSpanID(), Name: "engine.job",
		Start: end - job.wall.Nanoseconds(), End: end, Dur: job.wall.Nanoseconds() * int64(workers)}
	out := []span{root}
	for _, s := range job.sinks {
		for _, d := range s.solves {
			out = append(out, span{ID: nextSpanID(), Parent: root.ID, Name: "core.solve", Start: -1, End: -1, Dur: d})
		}
	}
	return out
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the time its children cover. A span's children never overlap
// in the time it holds (an engine job's solves run one BAI at a time
// per cell on its workers; a request has one handler, a handler one
// solve), so coverage is the sum of the children's durations.
func selfTimes(spans []span) map[string]int64 {
	self := make(map[int64]int64, len(spans))
	names := make(map[int64]string, len(spans))
	for _, s := range spans {
		self[s.ID] += s.Dur
		names[s.ID] = s.Name
		if s.Parent != 0 {
			self[s.Parent] -= s.Dur
		}
	}
	out := make(map[string]int64)
	for id, v := range self {
		out[names[id]] += v
	}
	return out
}

// maxSpansWritten caps the spans file so repeated traced runs stay a
// few megabytes; the metrics use every span kept in memory.
const maxSpansWritten = 50_000

// writeSpans writes the run's spans as JSON lines under dir.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"spans\":%d,\"written\":%d}\n", len(spans), min(len(spans), maxSpansWritten))
	for i, s := range spans {
		if i == maxSpansWritten {
			break
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"dur_ns\":%d}\n",
			s.ID, s.Parent, s.Name, s.Start, s.End, s.Dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sampleProcess reads the process's CPU time (user + system seconds,
// getrusage) and the Go runtime's memory statistics.
func sampleProcess() (float64, runtime.MemStats) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), ms
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}
