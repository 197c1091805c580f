package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		hundred = append(hundred, float64(i))
	}
	for _, tc := range []struct {
		samples []float64
		q, want float64
	}{
		{hundred, 0.5, 50},
		{hundred, 0.9, 90},
		{hundred, 0.99, 99},
		{hundred, 1, 100},
		{hundred, 0, 1},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2}, // the smallest value with half at or below it
		{[]float64{1, 2, 3, 4}, 0.51, 3},
		{[]float64{5, 5, 5, 9}, 0.75, 5},
		{[]float64{5, 5, 5, 9}, 0.76, 9},
	} {
		in := append([]float64(nil), tc.samples...)
		if got := quantile(in, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.samples, tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}

// A percentile is always one of the samples: no bucket edges.
func TestQuantileIsASample(t *testing.T) {
	samples := []float64{1.9e-3, 2.1e-3, 2.0e-3, 17.3e-3, 2.05e-3}
	got := quantile(append([]float64(nil), samples...), 0.99)
	if got != 17.3e-3 {
		t.Fatalf("p99 = %v, want the largest sample 0.0173", got)
	}
}

func TestSlicedQuantile(t *testing.T) {
	// Three slices of 1..100; the middle one is shifted by a stall, and
	// an empty slice is skipped.
	var slices [][]float32
	for s := 0; s < 3; s++ {
		var v []float32
		for i := 1; i <= 100; i++ {
			x := float32(i)
			if s == 1 {
				x += 1000
			}
			v = append(v, x)
		}
		slices = append(slices, v)
	}
	slices = append(slices, nil)
	if got, n := slicedQuantile(slices, 0.99); got != 99 || n != 300 {
		t.Fatalf("sliced p99 = %v over %d, want 99 over 300 (the stalled slice is outvoted)", got, n)
	}
	if got, _ := slicedQuantile(slices, 0.5); got != 50 {
		t.Fatalf("sliced p50 = %v, want 50", got)
	}
	if slices[1][0] != 1001 {
		t.Fatal("slicedQuantile reordered its input")
	}
	if got, n := slicedQuantile([][]float32{nil, nil}, 0.5); !math.IsNaN(got) || n != 0 {
		t.Fatalf("sliced p50 of nothing = %v over %d, want NaN over 0", got, n)
	}
}

func TestLatencyLogSlicesByDueTime(t *testing.T) {
	l := newLatencyLog(1000, 6*time.Second, false)
	for i := 0; i < 6; i++ {
		due := int64(1000) + int64(i)*1e9 + 5e8
		l.add(sample{kind: kindPoll, due: due, sent: due + 1e6, done: due + int64(i+1)*1e6, ok: true})
	}
	l.add(sample{kind: kindReport, due: 1000 + 7e9, sent: 1000 + 7e9, done: 1000 + 7e9 + 3e6, ok: true}) // past the end
	l.add(sample{kind: kindOpen, due: 1000, sent: 1000 + 9e6, done: 1000 + 1e7, ok: false})
	for k := 0; k < latencySlices; k++ {
		if len(l.lat[kindPoll][k]) != 1 || l.lat[kindPoll][k][0] != float32(k+1) {
			t.Fatalf("slice %d poll latencies %v, want [%d]", k, l.lat[kindPoll][k], k+1)
		}
	}
	if got := l.lat[kindReport][latencySlices-1]; len(got) != 1 || got[0] != 3 {
		t.Fatalf("late report went to %v, want the last slice", got)
	}
	if l.attempted != 8 || l.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 8 and 1", l.attempted, l.failed)
	}
	if w := l.allWaits(); len(w) != 7 { // the open's wait is not the generator's
		t.Fatalf("%d waits, want 7", len(w))
	}
	if got, n := l.latency(kindPoll, 0.5); got != 3 || n != 6 {
		t.Fatalf("poll p50 = %v over %d, want 3 over 6", got, n)
	}
}

func TestPerRefDividesRoundByRoundAndSkipsMissingRates(t *testing.T) {
	got := perRef([]float64{10, math.NaN(), 30}, []float64{2, 4, 5})
	if want := []float64{5, 6}; !slices.Equal(got, want) {
		t.Fatalf("perRef = %v, want %v", got, want)
	}
}
