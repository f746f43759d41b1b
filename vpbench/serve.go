package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/monitor"
	"verfploeter/internal/obsv"
	"verfploeter/internal/parallel"
	"verfploeter/internal/scenario"
	"verfploeter/internal/server"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// serve-medium: one vp-server tenant (b-root, medium tier, sampled with
// prediction on, root query log for load shares) behind a loopback
// net/http listener serving the real Server.Handler, with an epoch
// advanced every serveCadence. An open-loop generator sends lookups and
// a fixed share of drift polls on a schedule; a closed-loop phase then
// measures lookup throughput. Epochs keep advancing through both. The
// lookup addresses follow the root query log: a client block is asked
// for in proportion to the queries it sends.
const (
	serveScenarioSeed = 7
	serveTenant       = "b-root"
	serveCadence      = 500 * time.Millisecond
	// serveRate is the open-loop offered rate, requests/s. It sits far
	// below the closed-loop capacity (tens of thousands of lookups/s on
	// two cores), so a backlog means the program stalled, not that the
	// generator asked for too much.
	serveRate = 2000
	// serveDriftEvery makes every 20th open-loop request a drift poll.
	// The share is an assumption: nothing in the repository models how
	// often clients poll for drift.
	serveDriftEvery = 20
	serveOpenShare  = 0.75
	// maxLate bounds the generator's p99 lateness; a run past it did not
	// offer the load it claims and is refused rather than reported.
	maxLate = 50 * time.Millisecond
	// mapRing is how many epochs' maps answers are checked against; an
	// answer naming an older epoch is a failure.
	mapRing = 16
	// serveProbeWindow is how many open-loop advances probes_per_step
	// averages: the first ones, epochs 1 to 10. Each epoch probes a
	// different rotating sample, so a fixed window keeps the figure
	// independent of how many epochs fit in the run. A phase with fewer
	// open-loop advances is refused.
	serveProbeWindow = 10
	// serveSetupReps is the number of set-ups whose median is setup_s;
	// one takes about a tenth of a second, so more are needed than on
	// the internet tier for a steady median.
	serveSetupReps = 9
	// quietAdvanceN is how many Advances are timed with no load, for
	// their CPU time and runtime counters.
	quietAdvanceN    = 20
	closedTraceEvery = 16
	// spanHeader carries the client span id to the server span.
	spanHeader = "Vpbench-Span"
)

// serveEnv is one set-up: tenant, server, listener and the recent
// epochs' maps kept for answer checks.
type serveEnv struct {
	tn      *server.Tenant
	sv      *server.Server
	hs      *http.Server
	served  chan struct{}
	url     string
	handler http.Handler
	hc      *http.Client
	addrs   []ipv4.Addr
	conns   int

	mu        sync.Mutex
	published *sync.Cond // signalled on env.mu by publish
	latest    int        // the newest published epoch
	maps      map[int]*verfploeter.Catchment
}

func setupServe(reg *obsv.Registry, tr *tracer, rep int, seed uint64) (*serveEnv, float64, error) {
	sp := tr.begin(laneWriter, "scenario", "scenario.BRoot", -1-rep, 0)
	t0 := time.Now()
	s := scenario.BRoot(topology.SizeMedium, serveScenarioSeed)
	build := time.Since(t0).Seconds()
	sp.end()
	s.Obs = reg
	log := s.RootLog()
	tn, err := server.NewTenant(s, server.TenantConfig{Name: serveTenant,
		Monitor: monitor.Config{Sample: 0.125, Predict: true, LoadLog: log}}, reg)
	if err != nil {
		return nil, 0, err
	}
	sv := server.New(server.Config{Obs: reg})
	if err := sv.AddTenant(tn); err != nil {
		return nil, 0, err
	}
	// The baseline epoch, advanced directly rather than through
	// Server.Start (which does only that with no ticker configured) so
	// that its map is at hand for the answer checks.
	sp = tr.begin(laneWriter, "server", "server.Tenant.Advance", -1-rep, 0)
	er, err := tn.Advance(false)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	conns := runtime.NumCPU()
	env := &serveEnv{tn: tn, sv: sv, served: make(chan struct{}), conns: conns,
		url:  "http://" + ln.Addr().String() + "/v1/tenants/" + serveTenant,
		maps: map[int]*verfploeter.Catchment{}}
	env.published = sync.NewCond(&env.mu)
	env.handler = sv.Handler()
	h := env.handler
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	env.hs = &http.Server{Handler: h}
	go func() {
		defer close(env.served)
		_ = env.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	env.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns,
		MaxIdleConnsPerHost: conns, DisableCompression: true}}
	env.publish(er)

	// Addresses: client blocks of the root query log, each drawn in
	// proportion to its queries per day, in seeded order.
	blocks := make([]ipv4.Block, len(log.Blocks))
	weights := make([]float64, len(log.Blocks))
	for i, b := range log.Blocks {
		blocks[i], weights[i] = b.Block, b.QueriesPerDay
	}
	env.addrs = weightedAddrs(blocks, weights, 1<<16, seed)
	return env, build, nil
}

// close stops the listener, its connections and the server, and waits
// for the serving goroutine.
func (env *serveEnv) close() {
	env.hc.CloseIdleConnections()
	_ = env.hs.Close()
	<-env.served
	env.sv.Shutdown()
}

// publish records an advanced epoch's map for answer checks. It is the
// monitor's map, not the snapshot the server built from it, so a check
// against it also covers BuildSnapshot and Snapshot.Lookup.
func (env *serveEnv) publish(er monitor.EpochResult) {
	env.mu.Lock()
	env.maps[er.Epoch] = er.Map
	delete(env.maps, er.Epoch-mapRing)
	env.latest = er.Epoch
	env.mu.Unlock()
	env.published.Broadcast()
}

// epochMap returns an epoch's map, nil when it is no longer kept. An
// answer can name an epoch whose snapshot went live before its Advance
// returned; then it waits until that epoch is published.
func (env *serveEnv) epochMap(epoch int) *verfploeter.Catchment {
	env.mu.Lock()
	defer env.mu.Unlock()
	for epoch > env.latest {
		env.published.Wait()
	}
	return env.maps[epoch]
}

// checkServeDigest compares an epoch's map with the pin. The tenant
// takes no operator action, so every epoch maps the same.
func checkServeDigest(epoch int, m *verfploeter.Catchment) error {
	if d := digest(m); d != servePin {
		return fmt.Errorf("epoch %d: map digest %s, pinned %s", epoch, d, servePin)
	}
	return nil
}

// tracedHandler records a server.ServeHTTP span for each request the
// client traced, parented to the client span named in the header.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.Atoi(r.Header.Get(spanHeader + "-Op"))
		sp := tr.begin(laneServer, "server", "server.ServeHTTP", op, parent)
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// advancer steps the tenant one epoch per serveCadence until stopped.
type advancer struct {
	env  *serveEnv
	tr   *tracer
	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	attempts int
	advs     []advance
	errs     []error
}

// advance is one completed Advance.
type advance struct {
	iv     interval
	op     int
	wall   float64
	probes float64
}

func startAdvancer(env *serveEnv, tr *tracer) *advancer {
	a := &advancer{env: env, tr: tr, stop: make(chan struct{}), done: make(chan struct{})}
	go a.run()
	return a
}

func (a *advancer) run() {
	defer close(a.done)
	next := time.Now().Add(serveCadence)
	for {
		select {
		case <-a.stop:
			return
		case <-time.After(time.Until(next)):
		}
		next = next.Add(serveCadence)
		if now := time.Now(); next.Before(now) {
			next = now // an overrun does not queue a burst of epochs
		}
		a.check(a.step())
	}
}

// step runs one timed Advance and publishes its map. It returns nil
// when the Advance failed.
func (a *advancer) step() *monitor.EpochResult {
	op := a.env.tn.Epoch() + 1
	sp := a.tr.begin(laneWriter, "server", "server.Tenant.Advance", op, 0)
	t0 := time.Now()
	er, err := a.env.tn.Advance(false)
	wall := time.Since(t0)
	sp.end()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempts++
	if err != nil {
		a.errs = append(a.errs, err)
		return nil
	}
	a.env.publish(er)
	a.advs = append(a.advs, advance{ivOf(t0, wall), op, wall.Seconds(), float64(er.Probes)})
	return &er
}

// check compares an advanced epoch's map digest with the pin.
func (a *advancer) check(er *monitor.EpochResult) {
	if er == nil {
		return
	}
	if err := checkServeDigest(er.Epoch, er.Map); err != nil {
		a.mu.Lock()
		a.errs = append(a.errs, err)
		a.mu.Unlock()
	}
}

// halt stops the advancer and waits for an in-flight epoch to finish.
func (a *advancer) halt() {
	close(a.stop)
	<-a.done
}

// lookupAnswer is the part of the lookup response the check reads.
type lookupAnswer struct {
	Epoch     int    `json:"epoch"`
	Mapped    bool   `json:"mapped"`
	SiteIndex int    `json:"site_index"`
	RTTNS     int64  `json:"rtt_ns"`
	Block     string `json:"block"`
}

type driftAnswer struct {
	Predict *struct {
		Misses int `json:"misses"`
	} `json:"predict"`
}

// request is one generated request and its outcome.
type request struct {
	drift bool
	addr  ipv4.Addr
	due   time.Time
	sent  time.Time
	done  time.Time
	err   error
}

var nextOp atomic.Int64

// do sends one request and checks the answer: a lookup must equal the
// map of the epoch it names; a drift poll must decode and report no
// predict miss. Any transport error or non-200 is an error.
func (env *serveEnv) do(q *request, tr *tracer) {
	op := int(nextOp.Add(1)) + 1_000_000
	var url, name string
	if q.drift {
		since := env.tn.Epoch() - 2
		if since < 0 {
			since = 0
		}
		url, name = env.url+"/drift?since="+strconv.Itoa(since), "http.GET drift"
	} else {
		url, name = env.url+"/lookup?ip="+q.addr.String(), "http.GET lookup"
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		q.err = err
		return
	}
	sp := tr.begin(laneClient, "http", name, op, 0)
	if sp != nil {
		req.Header.Set(spanHeader, strconv.Itoa(sp.id()))
		req.Header.Set(spanHeader+"-Op", strconv.Itoa(op))
	}
	q.sent = time.Now()
	resp, err := env.hc.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	q.done = time.Now()
	sp.end()
	switch {
	case err != nil:
		q.err = err
	case resp.StatusCode != http.StatusOK:
		q.err = fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, body)
	case q.drift:
		var d driftAnswer
		if err := json.Unmarshal(body, &d); err != nil {
			q.err = fmt.Errorf("drift: %w", err)
		} else if d.Predict == nil || d.Predict.Misses != 0 {
			q.err = fmt.Errorf("drift: predict section %s", body)
		}
	default:
		q.err = env.checkLookup(q.addr, body)
	}
}

// checkLookup compares a lookup answer with the map of the epoch it
// names.
func (env *serveEnv) checkLookup(a ipv4.Addr, body []byte) error {
	var got lookupAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("lookup %v: %w", a, err)
	}
	m := env.epochMap(got.Epoch)
	if m == nil {
		return fmt.Errorf("lookup %v: answer names epoch %d, no longer kept", a, got.Epoch)
	}
	site, ok := m.SiteOf(a.Block())
	if !ok {
		site = -1
	}
	rtt, _ := m.RTTOf(a.Block())
	if got.Mapped != ok || got.SiteIndex != site || got.RTTNS != int64(rtt) ||
		got.Block != a.Block().String() {
		return fmt.Errorf("lookup %v at epoch %d: got %s, the epoch's map has mapped=%v site=%d rtt=%d",
			a, got.Epoch, body, ok, site, int64(rtt))
	}
	return nil
}

// openResult is one open-loop phase.
type openResult struct {
	reqs             []request
	start, end       time.Time
	offered          float64
	lookupLat, drift []float64 // seconds from due time
	late             []float64 // seconds the generator sent after due
	// achieved is requests answered per second, first due time to last
	// answer.
	achieved float64
}

// openLoop sends serveRate requests/s for d on a fixed schedule from one
// goroutine, handing each to one of env.conns workers (one connection
// each). Latency is timed from the due time, so a stall charges every
// request scheduled behind it.
func (env *serveEnv) openLoop(d time.Duration, seed uint64, tr *tracer) *openResult {
	n := int(d.Seconds() * serveRate)
	res := &openResult{reqs: make([]request, n), offered: serveRate}
	jobs := make(chan int, n) // holds every send: the schedule never waits on a worker
	var wg sync.WaitGroup
	for w := 0; w < env.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				env.do(&res.reqs[i], tr)
			}
		}()
	}
	sq := splitmix(seed ^ 0x5eed)
	res.start = time.Now()
	interval := time.Second / serveRate
	for i := range res.reqs {
		q := &res.reqs[i]
		q.due = res.start.Add(time.Duration(i) * interval)
		q.drift = i%serveDriftEvery == serveDriftEvery-1
		q.addr = env.addrs[sq.next()%uint64(len(env.addrs))]
		if wait := time.Until(q.due); wait > 0 {
			time.Sleep(wait)
		}
		res.late = append(res.late, time.Since(q.due).Seconds())
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i := range res.reqs {
		q := &res.reqs[i]
		if q.done.After(res.end) {
			res.end = q.done
		}
		if q.err != nil {
			continue
		}
		lat := q.done.Sub(q.due).Seconds()
		if q.drift {
			res.drift = append(res.drift, lat)
		} else {
			res.lookupLat = append(res.lookupLat, lat)
		}
	}
	res.achieved = float64(n) / res.end.Sub(res.start).Seconds()
	return res
}

// closedLoop runs env.conns workers issuing lookups back to back for d.
// It returns how many were answered correctly, the failures, and the
// correct answers per second. A traced run records spans for one
// request in closedTraceEvery, which keeps the trace file small.
func (env *serveEnv) closedLoop(d time.Duration, tr *tracer) (ok int, errs []error, rps float64) {
	end := time.Now().Add(d)
	oks := make([]int, env.conns)
	fails := make([][]error, env.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < env.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w * len(env.addrs) / env.conns; time.Now().Before(end); k++ {
				q := request{addr: env.addrs[k%len(env.addrs)]}
				if k%closedTraceEvery == 0 {
					env.do(&q, tr)
				} else {
					env.do(&q, nil)
				}
				if q.err != nil {
					fails[w] = append(fails[w], q.err)
				} else {
					oks[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for w := range oks {
		ok += oks[w]
		errs = append(errs, fails[w]...)
	}
	return ok, errs, float64(ok) / elapsed
}

// servePhase is one load run: open loop, then closed loop, beside the
// advancer.
type servePhase struct {
	open     *openResult
	closedOK int
	rps      float64
	adv      *advancer
	// openAdvs are the advances that ran wholly inside the open loop.
	// step_s and probes_per_step come from these only: the closed loop
	// keeps every core busy and would mix a second load regime in.
	openAdvs []advance
}

func (env *serveEnv) phase(secs float64, seed uint64, tr *tracer, r *report) (*servePhase, error) {
	ph := &servePhase{adv: startAdvancer(env, tr)}
	total := time.Duration(secs * float64(time.Second))
	ph.open = env.openLoop(time.Duration(float64(total)*serveOpenShare), seed, tr)
	var closedErrs []error
	ph.closedOK, closedErrs, ph.rps = env.closedLoop(total-time.Duration(float64(total)*serveOpenShare), tr)
	ph.adv.halt()
	for _, q := range ph.open.reqs {
		r.op()
		if q.err != nil {
			r.fail("open loop: %v", q.err)
		}
	}
	r.attempted += ph.closedOK
	for _, err := range closedErrs {
		r.op()
		r.fail("closed loop: %v", err)
	}
	r.attempted += ph.adv.attempts
	for _, err := range ph.adv.errs {
		r.fail("advance: %v", err)
	}
	open := ivOf(ph.open.start, ph.open.end.Sub(ph.open.start))
	for _, a := range ph.adv.advs {
		if a.iv.start >= open.start && a.iv.end <= open.end {
			ph.openAdvs = append(ph.openAdvs, a)
		}
	}
	if len(ph.openAdvs) < serveProbeWindow {
		return nil, fmt.Errorf("only %d epochs advanced during the open loop, fewer than %d",
			len(ph.openAdvs), serveProbeWindow)
	}
	late := percentile(sorted(ph.open.late), 99)
	if late > maxLate.Seconds() {
		return nil, fmt.Errorf("invalid run: the generator fell behind (p99 lateness %.1f ms, bound %v)",
			late*1e3, maxLate)
	}
	return ph, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// blockedFrac is the share of drift polls whose wait — due time to
// answer — overlaps an Advance.
func (ph *servePhase) blockedFrac() float64 {
	n, blocked := 0, 0
	for _, q := range ph.open.reqs {
		if !q.drift || q.err != nil {
			continue
		}
		n++
		for _, a := range ph.adv.advs {
			if w := ivOf(q.due, q.done.Sub(q.due)); a.iv.start < w.end && w.start < a.iv.end {
				blocked++
				break
			}
		}
	}
	return ratio(float64(blocked), float64(n))
}

// openWalls returns the open-loop advances' wall times, and their
// operation ids.
func (ph *servePhase) openWalls() (walls []float64, ops []int) {
	for _, a := range ph.openAdvs {
		walls = append(walls, a.wall)
		ops = append(ops, a.op)
	}
	return walls, ops
}

// probesPerStep is the mean probe count of the first serveProbeWindow
// open-loop advances.
func (ph *servePhase) probesPerStep() float64 {
	var probes []float64
	for _, a := range ph.openAdvs[:serveProbeWindow] {
		probes = append(probes, a.probes)
	}
	return mean(probes)
}

func (ph *servePhase) reportE2E(r *report) {
	walls, _ := ph.openWalls()
	r.set("step_s", median(walls))
	r.set("probes_per_step", ph.probesPerStep())
	lk := r.timing("lookup_ms", "ms", 1e3, ph.open.lookupLat)
	dr := r.timing("drift_ms", "ms", 1e3, ph.open.drift)
	r.printf("%-24s %.4f ms (n=%d)", "lookup_p50_ms", lk.Median*1e3, lk.N)
	r.printf("%-24s %.4f ms", "lookup_p99_ms", percentile(sorted(ph.open.lookupLat), 99)*1e3)
	r.printf("%-24s %.4f ms (n=%d)", "drift_p99_ms", percentile(sorted(ph.open.drift), 99)*1e3, dr.N)
	r.printf("%-24s %.0f lookups/s over %d connections (n=%d)", "lookup_rps", ph.rps, runtime.NumCPU(), ph.closedOK)
	r.timing("advance_s", "s", 1, walls)
	r.printf("%-24s %d of %d advances ran wholly inside the open loop", "advances", len(walls), len(ph.adv.advs))
	r.printf("%-24s %.0f (mean over the first %d open-loop advances)", "probes_per_step",
		ph.probesPerStep(), serveProbeWindow)
	r.printf("%-24s offered %.0f/s, achieved %.0f/s, p99 lateness %.3f ms, drift polls blocked by an advance %.3f",
		"loadgen", ph.open.offered, ph.open.achieved, percentile(sorted(ph.open.late), 99)*1e3, ph.blockedFrac())
}

func (ph *servePhase) reportLoadgen(r *report) {
	r.set("loadgen.late_ms", percentile(sorted(ph.open.late), 99)*1e3)
	r.set("loadgen.offered_rps", ph.open.offered)
	r.set("loadgen.achieved_rps", ph.open.achieved)
	r.set("loadgen.lookup_p50_ms", median(ph.open.lookupLat)*1e3)
	r.set("loadgen.lookup_p99_ms", percentile(sorted(ph.open.lookupLat), 99)*1e3)
	r.set("loadgen.drift_p99_ms", percentile(sorted(ph.open.drift), 99)*1e3)
	r.set("loadgen.lookup_rps", ph.rps)
	r.set("server.drift_blocked_frac", ph.blockedFrac())
}

func runServe(o options, r *report) error {
	in := newInstruments(o.trace)
	defer in.close()

	var env *serveEnv
	var setups, builds []float64
	for i := 0; i < serveSetupReps; i++ {
		if env != nil {
			env.close()
			env = nil
		}
		debug.FreeOSMemory() // drop the previous set-up before timing the next
		t0 := time.Now()
		e, build, err := setupServe(in.reg, in.tr, i, o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, build)
		env = e
		r.op()
		if err := checkServeDigest(0, env.epochMap(0)); err != nil {
			r.fail("baseline: %v", err)
		}
	}
	defer func() { env.close() }()
	r.set("setup_s", median(setups))
	r.timing("setup_s", "s", 1, setups)
	mapped := 0
	for _, a := range env.addrs {
		if _, ok := env.epochMap(0).SiteOf(a.Block()); ok {
			mapped++
		}
	}
	r.printf("%-24s %d mapped blocks at baseline, %d connections, epoch every %v, %d requests/s offered, 1 in %d a drift poll",
		"tenant", env.tn.Current().Len(), env.conns, serveCadence, serveRate, serveDriftEvery)
	r.printf("%-24s %d addresses drawn by root query-log weight, %.3f of them in mapped blocks at baseline",
		"lookup addresses", len(env.addrs), ratio(float64(mapped), float64(len(env.addrs))))
	setupCounters := readCounters(in.reg)

	if !o.trace {
		ph, err := env.phase(o.seconds, o.seed, nil, r)
		if err != nil {
			return err
		}
		ph.reportE2E(r)
		return nil
	}

	// Untraced reference on its own tenant: the traced tenant carries
	// the registry from construction on.
	in.hookBGP(false)
	plain, _, err := setupServe(nil, nil, 0, o.seed)
	if err != nil {
		return err
	}
	untraced, err := plain.phase(o.seconds/2, o.seed, nil, r)
	plain.close()
	if err != nil {
		return err
	}

	in.hookBGP(true)
	quiet := env.quiet(in.tr, r)
	base := readCounters(in.reg)
	traced, err := env.phase(o.seconds/2, o.seed, in.tr, r)
	if err != nil {
		return err
	}
	d := readCounters(in.reg).since(base)
	r.printf("-- untraced phase")
	untraced.reportE2E(r)
	r.printf("-- traced phase")
	traced.reportE2E(r)
	in.tr.absorb(in.reg)

	// The counters cover every advance of the traced phase; the span
	// metrics, like step_s, only the open-loop ones.
	n := float64(len(traced.adv.advs))
	walls, ops := traced.openWalls()
	reportSetupLayers(r, builds, setupCounters)
	reportCounters(r, d, len(traced.adv.advs))
	r.set("predict.skipped_strata", ratio(d["predict_skipped_strata"], n))
	r.set("predict.hits", d["predict_hits"])
	r.set("predict.misses", d["predict_misses"])
	r.printf("%-24s %.2f skipped strata/advance; predict hits %.0f misses %.0f", "predict",
		ratio(d["predict_skipped_strata"], n), d["predict_hits"], d["predict_misses"])
	reportSweepLayer(r, sweepByOp(in.tr.spans), ops, parallel.Workers(0))
	traced.reportLoadgen(r)
	step, build := advanceSpans(in.tr.spans, ops, walls)
	r.set("server.advance_s", median(walls))
	r.set("server.step_s", median(step))
	r.set("server.snapshot_build_s", median(build))
	r.timing("server.step_s", "s", 1, step)
	r.timing("server.snapshot_build_s", "s", 1, build)
	quiet.report(r)
	reportSelf(r, in.tr.spans, ops)
	reportSelf(r, in.tr.spans, requestOps(in.tr.spans), "http")
	untracedWalls, _ := untraced.openWalls()
	reportOverhead(r, median(untracedWalls), median(walls), len(in.tr.spans))
	return writeChrome(tracePath(o), in.tr.spans)
}

// requestOps returns the operation ids of the traced client requests.
func requestOps(spans []span) []int {
	var ops []int
	for i := range spans {
		if spans[i].Lane == laneClient {
			ops = append(ops, spans[i].Op)
		}
	}
	return ops
}

// advanceSpans splits each Advance into the monitor epoch span inside it
// and the rest (snapshot build and publish).
func advanceSpans(spans []span, ops []int, walls []float64) (step, build []float64) {
	epoch := map[int]float64{}
	for i := range spans {
		if s := &spans[i]; s.FromObsv && s.Name == "epoch" {
			epoch[s.Op] += s.Dur.Seconds()
		}
	}
	for i, op := range ops {
		step = append(step, epoch[op])
		build = append(build, walls[i]-epoch[op])
	}
	return step, build
}

// quietResult holds the uncontended per-layer timings.
type quietResult struct {
	snapNS, handlerUS, roundTripUS, driftUS float64
	cpu                                     []float64
	rt                                      runtimeAcc
}

// quiet measures the read path layer by layer with nothing else running:
// batch-timed Snapshot.Lookup, Handler().ServeHTTP into a recorder for
// lookups and drift polls, and loopback round trips; then quietAdvanceN
// Advances with runtime counters and process CPU time around each (CPU
// time is counted in scheduler ticks, so only a mean over many is
// usable).
func (env *serveEnv) quiet(tr *tracer, r *report) *quietResult {
	q := &quietResult{}
	sn := env.tn.Current()
	const batch = 1 << 16
	var per []float64
	for b := 0; b < 5; b++ {
		sp := tr.begin(laneWriter, "server", "server.Snapshot.Lookup", -100-b, 0)
		t0 := time.Now()
		for _, a := range env.addrs[:batch] {
			sn.Lookup(a)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
		sp.end()
	}
	q.snapNS = median(per)

	serve := func(url string) float64 {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		env.handler.ServeHTTP(rec, req)
		d := time.Since(t0)
		r.op()
		if rec.Code != http.StatusOK {
			r.fail("ServeHTTP %s: status %d", url, rec.Code)
		}
		return d.Seconds() * 1e6
	}
	var handler, drift, rtt []float64
	for i := 0; i < 2000; i++ {
		handler = append(handler, serve(env.url+"/lookup?ip="+env.addrs[i].String()))
	}
	for i := 0; i < 500; i++ {
		drift = append(drift, serve(env.url+"/drift?since=0"))
	}
	for i := 0; i < 2000; i++ {
		rq := request{addr: env.addrs[i]}
		env.do(&rq, tr)
		r.op()
		if rq.err != nil {
			r.fail("quiet lookup: %v", rq.err)
			continue
		}
		rtt = append(rtt, rq.done.Sub(rq.sent).Seconds()*1e6)
	}
	q.handlerUS, q.driftUS, q.roundTripUS = median(handler), median(drift), median(rtt)

	a := &advancer{env: env, tr: tr}
	for i := 0; i < quietAdvanceN; i++ {
		q.rt.start()
		er := a.step()
		q.rt.stop()
		a.check(er)
		r.op()
		q.cpu = append(q.cpu, q.rt.lastCPU)
	}
	for _, err := range a.errs {
		r.fail("quiet advance: %v", err)
	}
	return q
}

func (q *quietResult) report(r *report) {
	r.set("server.snapshot_lookup_ns", q.snapNS)
	r.set("server.handler_lookup_us", q.handlerUS)
	r.set("server.transport_us", q.roundTripUS-q.handlerUS)
	r.set("server.drift_handler_us", q.driftUS)
	r.printf("%-24s Snapshot.Lookup %.1f ns, lookup handler %.1f us, round trip %.1f us (transport %.1f us), drift handler %.1f us (uncontended medians)",
		"read path", q.snapNS, q.handlerUS, q.roundTripUS, q.roundTripUS-q.handlerUS, q.driftUS)
	q.rt.report(r, "advance, uncontended")
	r.set("runtime.cpu_s_per_op", mean(q.cpu))
}
