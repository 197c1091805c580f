package main

import "time"

// latencyLog keeps what the latency metrics need from one load phase:
// per request kind and per time slice of the phase, the latency of each
// successful request, and per slice the generator's wait, as float32
// milliseconds. Four bytes a request keep the benchmark's own memory
// out of peak_rss_mb. Traced runs also keep every sample for pairing
// with handler spans.
type latencyLog struct {
	start, span int64 // phase start (ns since the epoch) and length
	keep        bool
	lat         [numKinds][latencySlices][]float32
	wait        [latencySlices][]float32
	attempted   int
	failed      int
	samples     []sample // keep only
}

func newLatencyLog(start int64, span time.Duration, keep bool) *latencyLog {
	return &latencyLog{start: start, span: max(span.Nanoseconds(), 1), keep: keep}
}

// slice is the time slice a request due at t falls in; requests past
// the end of the phase (the round in flight at its deadline) go to the
// last one.
func (l *latencyLog) slice(t int64) int {
	k := int((t - l.start) * latencySlices / l.span)
	return min(max(k, 0), latencySlices-1)
}

func (l *latencyLog) add(s sample) {
	k := l.slice(s.due)
	l.attempted++
	if s.ok {
		l.lat[s.kind][k] = append(l.lat[s.kind][k], float32(float64(s.latency())/1e6))
	} else {
		l.failed++
	}
	if s.kind != kindOpen { // an open is sent the moment its close returns
		l.wait[k] = append(l.wait[k], float32(float64(s.wait())/1e6))
	}
	if l.keep {
		l.samples = append(l.samples, s)
	}
}

// merge folds another worker's log of the same phase into l.
func (l *latencyLog) merge(o *latencyLog) {
	for kind := range l.lat {
		for k := range l.lat[kind] {
			l.lat[kind][k] = append(l.lat[kind][k], o.lat[kind][k]...)
		}
	}
	for k := range l.wait {
		l.wait[k] = append(l.wait[k], o.wait[k]...)
	}
	l.attempted += o.attempted
	l.failed += o.failed
	l.samples = append(l.samples, o.samples...)
}

// latency returns the median over the phase's time slices of each
// slice's exact q-quantile of the kind's latencies, in ms, and the
// number of latencies. A stall of the host that spoils one slice moves
// it no more than any one slice can. Empty slices are skipped.
func (l *latencyLog) latency(kind reqKind, q float64) (float64, int) {
	return slicedQuantile(l.lat[kind][:], q)
}

// allWaits returns every generator wait of the phase, in ms.
func (l *latencyLog) allWaits() []float64 {
	var out []float64
	for _, w := range l.wait {
		out = append(out, widen(w)...)
	}
	return out
}

func widen(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}
