package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flare-sim/flare/internal/benchmarks"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/obs"
	"github.com/flare-sim/flare/internal/oneapi"
)

// planeShape is one workload's control-plane population.
type planeShape struct {
	cells, sessions int
	// dataFlows is the PCRF data-flow count every report carries.
	dataFlows int
	// steady repeats each flow's radio accounting every BAI (a static
	// channel); otherwise every report draws fresh costs (mobility).
	steady bool
}

// bai is the control plane's bitrate assignment interval; the open
// loop schedules one report and one poll per session per BAI.
const bai = time.Second

// churnEvery is how many BAIs pass between two close/re-open cycles
// of one session in each cell.
const churnEvery = 10

// loadWorkers is the number of load-generating goroutines, and the
// number of HTTP connections they share.
const loadWorkers = 2

type reqKind uint8

const (
	kindReport reqKind = iota
	kindPoll
	kindClose
	kindOpen
	numKinds
)

var kindNames = [numKinds]string{"report", "poll", "close", "open"}

// sample is one request: when it was due, sent and answered, in
// nanoseconds since the process epoch.
type sample struct {
	kind            reqKind
	cell            int32
	due, sent, done int64
	id              int64 // trace mode: the request id the handler saw
	baiSeq          int64 // reports: the BAI sequence answered
	ok              bool
}

func (s sample) latency() int64 { return s.done - s.due }
func (s sample) wait() int64    { return s.sent - s.due }

// plane is a OneAPI server behind oneapi.Handler on a loopback
// listener, plus the cells and plugin clients that load it.
type plane struct {
	shape  planeShape
	seed   uint64
	ladder has.Ladder
	srv    *oneapi.Server
	hs     *http.Server
	served chan error
	base   string
	tr     *http.Transport
	httpc  *http.Client
	cells  []*planeCell
	tracer *planeTracer // nil when untraced
}

// planeCell is one synthetic eNodeB and its plugins.
type planeCell struct {
	id      int
	flows   []int
	clients []*oneapi.Client
	steady  []core.FlowStats

	mu      sync.Mutex // serialises the cell's reports and their checks
	round   int64      // reports sent; also the report Seq
	lastBAI int64
	levels  map[int]int // flow -> level in the last report
}

// newPlane starts the server, opens every session in-process and
// warms both connections. It is the control plane's set-up.
func newPlane(seed uint64, shape planeShape, traced bool) (*plane, error) {
	p := &plane{shape: shape, seed: seed, ladder: has.SimLadder(), served: make(chan error, 1)}
	p.srv = oneapi.NewServer(benchmarks.OneAPIServerConfig(), oneapi.NewPCRF())
	handler := oneapi.Handler(p.srv)
	p.tr = &http.Transport{MaxConnsPerHost: loadWorkers, MaxIdleConnsPerHost: loadWorkers, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = p.tr
	if traced {
		p.tracer = newPlaneTracer()
		p.srv.SetRecorder(obs.New(obs.Options{RingSize: -1, Sinks: []obs.Sink{p.tracer.sink}}))
		handler = p.tracer.middleware(handler)
		rt = idTransport{p.tr}
	}
	p.httpc = &http.Client{Transport: rt}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	p.base = "http://" + ln.Addr().String()
	p.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { p.served <- p.hs.Serve(ln) }()

	rng := rand.New(rand.NewPCG(seed, 0x9a7e))
	bytesPerRB := lte.BitsPerRB(12) / 8
	for c := 0; c < shape.cells; c++ {
		cell := &planeCell{id: c, levels: make(map[int]int)}
		for i := 0; i < shape.sessions; i++ {
			flow := c*shape.sessions + i
			if err := p.srv.OpenSession(c, oneapi.SessionRequest{FlowID: flow, LadderBps: p.ladder}); err != nil {
				p.close()
				return nil, fmt.Errorf("open session %d/%d: %w", c, flow, err)
			}
			cell.flows = append(cell.flows, flow)
			cell.clients = append(cell.clients, oneapi.NewClientWithConfig(p.base, c, flow, p.httpc,
				oneapi.ClientConfig{MaxRetries: -1}))
			b := 300_000 + rng.Int64N(400_000)
			cell.steady = append(cell.steady, core.FlowStats{Bytes: b, RBs: int64(float64(b) / bytesPerRB)})
		}
		p.cells = append(p.cells, cell)
	}

	// One poll per connection, concurrently, so both are open before
	// anything is timed. No BAI has run: the answer is "no assignment".
	var wg sync.WaitGroup
	errs := make([]error, loadWorkers)
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := p.cells[w%len(p.cells)]
			_, _, errs[w] = c.clients[0].PollContext(context.Background())
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		p.close()
		return nil, fmt.Errorf("warm-up poll: %w", err)
	}
	return p, nil
}

// close stops the server and waits for its serve loop to return.
func (p *plane) close() {
	// Drop the client's connections first: the server would otherwise
	// wait out a connection the transport dialed but never used.
	p.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.hs.Shutdown(ctx) // a timeout leaves nothing to do but Close
	_ = p.hs.Close()
	if err := <-p.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("plane: serve: %v\n", err)
	}
	p.srv.Close()
}

// statsReport builds cell c's report for its round r.
func (p *plane) statsReport(c *planeCell, r int64) oneapi.StatsReport {
	flows := make(map[int]core.FlowStats, len(c.flows))
	if p.shape.steady {
		for i, f := range c.flows {
			flows[f] = c.steady[i]
		}
	} else {
		rng := rand.New(rand.NewPCG(jobSeed(p.seed, int(r), c.id), 0x57a7))
		for _, f := range c.flows {
			b := 200_000 + rng.Int64N(600_000)
			bytesPerRB := lte.BitsPerRB(2+rng.IntN(19)) / 8
			flows[f] = core.FlowStats{Bytes: b, RBs: int64(float64(b)/bytesPerRB) + 1}
		}
	}
	return oneapi.StatsReport{Flows: flows, NumDataFlows: p.shape.dataFlows, Seq: r}
}

// requestCtx tags a request with a trace id when tracing.
func (p *plane) requestCtx(s *sample) context.Context {
	if p.tracer == nil {
		return context.Background()
	}
	s.id = p.tracer.ids.Add(1)
	return context.WithValue(context.Background(), reqIDKey{}, s.id)
}

// report sends cell c's next stats report and checks the answer.
func (p *plane) report(c *planeCell, due int64, rep *report) sample {
	s := sample{kind: kindReport, cell: int32(c.id), due: due}
	ctx := p.requestCtx(&s)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.round++
	body := p.statsReport(c, c.round)
	s.sent = now()
	resp, err := oneapi.ReportStatsContext(ctx, p.httpc, p.base, c.id, body)
	s.done = now()
	if err != nil {
		rep.problem("report cell %d: %v", c.id, err)
		return s
	}
	s.baiSeq = resp.BAISeq
	s.ok = p.checkReport(c, resp, rep)
	return s
}

// checkReport enforces the answer's invariants: bai_seq strictly
// increases per cell, every rate is its ladder level's rate, and no
// level rises by more than one step per BAI (Algorithm 1). A re-opened
// session restarts at the lowest level, so the rule holds across churn.
func (p *plane) checkReport(c *planeCell, resp oneapi.StatsResponse, rep *report) bool {
	ok := true
	if resp.BAISeq <= c.lastBAI {
		rep.problem("cell %d: bai_seq %d after %d", c.id, resp.BAISeq, c.lastBAI)
		ok = false
	}
	step := int(resp.BAISeq - c.lastBAI)
	levels := make(map[int]int, len(resp.Assignments))
	for _, a := range resp.Assignments {
		if !p.rateMatches(a.Level, a.RateBps) {
			rep.problem("cell %d flow %d: rate %v is not ladder level %d", c.id, a.FlowID, a.RateBps, a.Level)
			ok = false
		}
		if prev, seen := c.levels[a.FlowID]; seen && a.Level-prev > step {
			rep.problem("cell %d flow %d: level %d -> %d in %d BAI(s)", c.id, a.FlowID, prev, a.Level, step)
			ok = false
		}
		levels[a.FlowID] = a.Level
	}
	c.levels = levels
	c.lastBAI = resp.BAISeq
	return ok
}

func (p *plane) rateMatches(level int, rate float64) bool {
	return level >= 0 && level < p.ladder.Len() && p.ladder.Rate(level) == rate
}

// poll fetches session k's assignment and checks it.
func (p *plane) poll(c *planeCell, k int, due int64, rep *report) sample {
	s := sample{kind: kindPoll, cell: int32(c.id), due: due}
	ctx := p.requestCtx(&s)
	s.sent = now()
	a, assigned, err := c.clients[k].PollContext(ctx)
	s.done = now()
	switch {
	case err != nil:
		rep.problem("poll cell %d flow %d: %v", c.id, c.flows[k], err)
	case !assigned:
		s.ok = true // live session whose first BAI is still pending
	case a.FlowID != c.flows[k] || !p.rateMatches(a.Level, a.RateBps) || (a.CellSeq != 0 && a.BAISeq > a.CellSeq):
		rep.problem("poll cell %d flow %d: bad assignment %+v", c.id, c.flows[k], a)
	default:
		s.ok = true
	}
	return s
}

// churn closes session k and opens it again. Both requests are
// recorded; the open carries the cycle's due time, so its latency is
// the whole close/re-open cycle as the plugin sees it.
func (p *plane) churn(c *planeCell, k int, due int64, rep *report) [2]sample {
	cl := c.clients[k]
	closeS := sample{kind: kindClose, cell: int32(c.id), due: due}
	ctx := p.requestCtx(&closeS)
	closeS.sent = now()
	err := cl.CloseContext(ctx)
	closeS.done = now()
	if closeS.ok = err == nil; !closeS.ok {
		rep.problem("close cell %d flow %d: %v", c.id, c.flows[k], err)
	}
	openS := sample{kind: kindOpen, cell: int32(c.id), due: due}
	ctx = p.requestCtx(&openS)
	openS.sent = now()
	err = cl.OpenContext(ctx, p.ladder, core.Preferences{})
	openS.done = now()
	if openS.ok = err == nil && closeS.ok; !openS.ok && err != nil {
		rep.problem("open cell %d flow %d: %v", c.id, c.flows[k], err)
	}
	return [2]sample{closeS, openS}
}

// schedule is the open loop's timetable: every BAI, each cell's report
// then one poll per session, all spread evenly over the BAI in cell
// order, so cell c's phase is c/cells of a BAI. Every churnEvery BAIs
// one session per cell (staggered across cells) closes and re-opens in
// place of its poll.
type schedule struct {
	cells, sessions int
	bai             time.Duration
}

// item is one scheduled request.
type item struct {
	due     time.Duration // from the start of the loop
	cell    int
	session int // -1 = the cell's report
	churn   bool
}

func (s schedule) perBAI() int64 { return int64(s.cells * (1 + s.sessions)) }

// at returns the i-th request of the timetable.
func (s schedule) at(i int64) item {
	m := s.perBAI()
	r, slot := i/m, i%m
	it := item{
		due:     time.Duration(r)*s.bai + time.Duration(slot*int64(s.bai)/m),
		cell:    int(slot) / (1 + s.sessions),
		session: int(slot)%(1+s.sessions) - 1,
	}
	if it.session >= 0 && (int(r)+it.cell)%churnEvery == churnEvery-1 {
		it.churn = it.session == ((int(r)+it.cell)/churnEvery)%s.sessions
	}
	return it
}

// clock abstracts time for the open loop so tests can run it on a
// fake clock.
type clock interface {
	now() int64 // ns since the epoch
	sleepUntil(t int64)
}

type wallClock struct{}

func (wallClock) now() int64 { return now() }
func (wallClock) sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// runOpenLoop drives the timetable for d with the given workers. Each
// worker takes the next request in due order, sleeps until it is due,
// sends it and logs it; a worker that falls behind sends at once, so a
// stall shows as the wait of every request queued behind it. send
// performs one item and logs its samples into the worker's log. Once
// the loop is more than grace past d the workers stop; it returns the
// merged log and how many requests due before d were never sent.
func runOpenLoop(clk clock, workers int, sch schedule, d, grace time.Duration, keep bool, send func(it item, due int64, log *latencyLog)) (*latencyLog, int64) {
	start := clk.now()
	stop := start + (d + grace).Nanoseconds()
	var next, taken atomic.Int64
	logs := make([]*latencyLog, workers)
	var wg sync.WaitGroup
	for w := range logs {
		logs[w] = newLatencyLog(start, d, keep)
		wg.Add(1)
		go func(log *latencyLog) {
			defer wg.Done()
			for clk.now() <= stop {
				it := sch.at(next.Add(1) - 1)
				if it.due >= d {
					break
				}
				taken.Add(1)
				due := start + it.due.Nanoseconds()
				clk.sleepUntil(due)
				send(it, due, log)
			}
		}(logs[w])
	}
	wg.Wait()
	for _, l := range logs[1:] {
		logs[0].merge(l)
	}
	return logs[0], sch.before(d) - taken.Load()
}

// before counts the timetable's requests due before d.
func (s schedule) before(d time.Duration) int64 {
	m := s.perBAI()
	full := int64(d / s.bai)
	rest := d - time.Duration(full)*s.bai
	// Slot k of a BAI is due at k*bai/m (integer division), so the
	// slots due before rest are those with k*bai < rest*m.
	part := (int64(rest)*m + int64(s.bai) - 1) / int64(s.bai)
	return full*m + min(part, m)
}

// openLoop runs the plane's open-loop phase. A generator that is still
// a BAI behind at the end stops there and voids the run.
func (p *plane) openLoop(d time.Duration, rep *report) *latencyLog {
	sch := schedule{cells: p.shape.cells, sessions: p.shape.sessions, bai: bai}
	log, unsent := runOpenLoop(wallClock{}, loadWorkers, sch, d, bai, p.tracer != nil, func(it item, due int64, log *latencyLog) {
		c := p.cells[it.cell]
		switch {
		case it.session < 0:
			log.add(p.report(c, due, rep))
		case it.churn:
			pair := p.churn(c, it.session, due, rep)
			log.add(pair[0])
			log.add(pair[1])
		default:
			log.add(p.poll(c, it.session, due, rep))
		}
	})
	if unsent > 0 {
		rep.invalid = append(rep.invalid, fmt.Sprintf("generator backlog: %d requests still unsent a BAI after the open loop ended", unsent))
	}
	return log
}

// closedLoop runs cell rounds back to back for d: each of the
// loadWorkers workers owns every loadWorkers-th cell and, per round,
// reports, churns one session every churnEvery rounds, then polls every
// session. It returns the chunk's log and its capacity: the cell-rounds
// completed within d, per second.
func (p *plane) closedLoop(d time.Duration, rep *report) (*latencyLog, float64) {
	start := now()
	deadline := start + d.Nanoseconds()
	logs := make([]*latencyLog, loadWorkers)
	done := make([]int, loadWorkers) // cell-rounds completed by the deadline
	var wg sync.WaitGroup
	for w := range logs {
		logs[w] = newLatencyLog(start, d, p.tracer != nil)
		wg.Add(1)
		go func(w int, log *latencyLog) {
			defer wg.Done()
			for now() < deadline {
				for ci := w; ci < len(p.cells) && now() < deadline; ci += loadWorkers {
					c := p.cells[ci]
					log.add(p.report(c, now(), rep))
					if c.round%churnEvery == 0 {
						pair := p.churn(c, int(c.round/churnEvery)%len(c.clients), now(), rep)
						log.add(pair[0])
						log.add(pair[1])
					}
					for k := range c.clients {
						log.add(p.poll(c, k, now(), rep))
					}
					if now() <= deadline {
						done[w]++
					}
				}
			}
		}(w, logs[w])
	}
	wg.Wait()
	rounds := 0
	for w, l := range logs {
		if w > 0 {
			logs[0].merge(l)
		}
		rounds += done[w]
	}
	return logs[0], float64(rounds) / d.Seconds()
}

// reqIDKey carries a traced request's id from the load generator to
// idTransport.
type reqIDKey struct{}

// idTransport stamps each traced request with its id so the handler
// middleware can pair its span with the client's.
type idTransport struct{ base http.RoundTripper }

const reqIDHeader = "X-Perfbench-Req"

func (t idTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(reqIDKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(reqIDHeader, fmt.Sprint(id))
	}
	return t.base.RoundTrip(req)
}

// planeTracer times oneapi.Handler from the outside: the handler span
// of every traced request, status classes, and the server's solves.
type planeTracer struct {
	ids      atomic.Int64
	mu       sync.Mutex
	handlers map[int64][2]int64 // id -> handler start, end
	status4  atomic.Int64
	status5  atomic.Int64
	sink     *countingSink // the server recorder's
}

func newPlaneTracer() *planeTracer {
	return &planeTracer{handlers: make(map[int64][2]int64), sink: newCountingSink()}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (t *planeTracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		end := now()
		switch {
		case sw.status >= 500:
			t.status5.Add(1)
		case sw.status >= 400:
			t.status4.Add(1)
		}
		var id int64
		if _, err := fmt.Sscan(r.Header.Get(reqIDHeader), &id); err == nil {
			t.mu.Lock()
			t.handlers[id] = [2]int64{start, end}
			t.mu.Unlock()
		}
	})
}
