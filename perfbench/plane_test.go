package main

import (
	"sync"
	"testing"
	"time"
)

func TestScheduleSpreadsRequestsEvenly(t *testing.T) {
	sch := schedule{cells: 4, sessions: 3, bai: time.Second}
	m := sch.perBAI()
	if m != 16 {
		t.Fatalf("perBAI = %d, want 16", m)
	}
	step := time.Second / 16
	for i := int64(0); i < 3*m; i++ {
		it := sch.at(i)
		if want := time.Duration(i) * step; it.due != want {
			t.Fatalf("item %d due %v, want %v", i, it.due, want)
		}
		slot := int(i % m)
		if it.cell != slot/4 || it.session != slot%4-1 {
			t.Fatalf("item %d = cell %d session %d, want cell %d session %d", i, it.cell, it.session, slot/4, slot%4-1)
		}
	}
}

func TestScheduleChurnsOneSessionPerCellEveryTenBAIs(t *testing.T) {
	sch := schedule{cells: 3, sessions: 4, bai: time.Second}
	churns := make(map[int][]int) // cell -> BAIs with a churn
	for i := int64(0); i < 40*sch.perBAI(); i++ {
		it := sch.at(i)
		if it.churn {
			if it.session < 0 {
				t.Fatalf("item %d churns a report", i)
			}
			churns[it.cell] = append(churns[it.cell], int(i/sch.perBAI()))
		}
	}
	for c := 0; c < sch.cells; c++ {
		got := churns[c]
		if len(got) != 4 {
			t.Fatalf("cell %d churned in BAIs %v, want 4 churns in 40 BAIs", c, got)
		}
		for k := 1; k < len(got); k++ {
			if got[k]-got[k-1] != churnEvery {
				t.Fatalf("cell %d churned in BAIs %v, want every %d", c, got, churnEvery)
			}
		}
	}
}

// fakeClock is a single-worker virtual clock: sleeping jumps time
// forward, serving a request advances it by the service time.
type fakeClock struct {
	mu sync.Mutex
	t  int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = max(c.t, t)
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d.Nanoseconds()
}

// runFake drives a 10-request-per-BAI timetable (one cell, nine
// sessions, 100 ms BAI: a request due every 10 ms) for 100 ms with one
// worker and a fixed service time.
func runFake(service time.Duration) []sample {
	clk := &fakeClock{t: 1_000}
	sch := schedule{cells: 1, sessions: 9, bai: 100 * time.Millisecond}
	log, unsent := runOpenLoop(clk, 1, sch, 100*time.Millisecond, time.Second, true, func(it item, due int64, log *latencyLog) {
		s := sample{due: due, sent: clk.now(), ok: true}
		clk.advance(service)
		s.done = clk.now()
		log.add(s)
	})
	if unsent != 0 {
		panic("requests left unsent within the grace period")
	}
	return log.samples
}

func TestOpenLoopOnTimeRequestsDoNotWait(t *testing.T) {
	out := runFake(4 * time.Millisecond)
	if len(out) != 10 {
		t.Fatalf("%d requests, want 10", len(out))
	}
	for i, s := range out {
		if want := int64(1_000) + int64(i)*10e6; s.due != want {
			t.Fatalf("request %d due %d, want %d", i, s.due, want)
		}
		if s.wait() != 0 || s.latency() != 4e6 {
			t.Fatalf("request %d: wait %d latency %d, want 0 and 4ms", i, s.wait(), s.latency())
		}
	}
}

// A generator that falls behind sends late, and each request's latency
// counts from when it was due: the wait grows request by request.
func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	out := runFake(25 * time.Millisecond)
	if len(out) != 10 {
		t.Fatalf("%d requests, want 10", len(out))
	}
	for i, s := range out {
		wantWait := int64(i) * 15e6 // sent at 25i ms, due at 10i ms
		if s.wait() != wantWait {
			t.Fatalf("request %d waited %v, want %v", i, time.Duration(s.wait()), time.Duration(wantWait))
		}
		if s.latency() != wantWait+25e6 {
			t.Fatalf("request %d latency %v, want wait + 25ms", i, time.Duration(s.latency()))
		}
		if s.done-s.sent != 25e6 {
			t.Fatalf("request %d service %v, want 25ms", i, time.Duration(s.done-s.sent))
		}
	}
}

// A generator still behind once the grace period is over stops and
// reports what it never sent.
func TestOpenLoopStopsAfterGrace(t *testing.T) {
	clk := &fakeClock{}
	sch := schedule{cells: 1, sessions: 9, bai: 100 * time.Millisecond}
	log, unsent := runOpenLoop(clk, 1, sch, 100*time.Millisecond, 50*time.Millisecond, true, func(it item, due int64, log *latencyLog) {
		s := sample{due: due, sent: clk.now()}
		clk.advance(40 * time.Millisecond)
		s.done = clk.now()
		log.add(s)
	})
	out := log.samples
	// Sends start at 0, 40, 80 and 120 ms; at 160 ms the loop is past
	// 100 + 50 ms and stops with 6 of the 10 requests unsent.
	if len(out) != 4 || unsent != 6 {
		t.Fatalf("sent %d, unsent %d; want 4 and 6", len(out), unsent)
	}
}

func TestScheduleBefore(t *testing.T) {
	sch := schedule{cells: 4, sessions: 3, bai: time.Second}
	for _, d := range []time.Duration{0, 1, time.Second / 16, time.Second/16 + 1, time.Second, 2500 * time.Millisecond, 3 * time.Second} {
		var want int64
		for i := int64(0); sch.at(i).due < d; i++ {
			want++
		}
		if got := sch.before(d); got != want {
			t.Errorf("before(%v) = %d, want %d", d, got, want)
		}
	}
}
