package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// The host-speed reference. The shared host's speed drifts by tens of
// percent over seconds and minutes, and every timing in a run drifts
// with it. Each round of a run therefore also times a fixed task whose
// code is the benchmark's own, so it is the same on every commit
// measured, and the throughput metrics are reported per unit of it:
// work done in the time the host needs for one reference unit. A
// change to the program moves them; a slow spell of the host moves
// the program and the reference alike and cancels.

const (
	refLen  = 25 * time.Millisecond // one reference measurement
	refN    = 1 << 14               // values per unit
	refKeys = 1 << 12               // distinct values
)

// reference holds the reference task's buffers, allocated once so a
// unit allocates nothing and the garbage collector stays out of it.
type reference struct {
	buf  []uint64
	m    map[uint64]uint32
	sink int // keeps the work observable
}

func newReference() *reference {
	return &reference{buf: make([]uint64, refN), m: make(map[uint64]uint32, refKeys)}
}

// unit does one unit of reference work: fill the buffer from a fixed
// pseudo-random stream, sort it, and count its values in a map —
// branchy compares, sequential and hashed memory access over a working
// set of a few hundred KiB.
func (r *reference) unit() {
	var rng rand.PCG
	rng.Seed(1, 2)
	for i := range r.buf {
		r.buf[i] = rng.Uint64() % refKeys
	}
	slices.Sort(r.buf)
	clear(r.m)
	for _, v := range r.buf {
		r.m[v]++
	}
	r.sink += len(r.m)
}

// rate does whole units of reference work for at least d and returns
// units per second.
func (r *reference) rate(d time.Duration) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		r.unit()
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}
