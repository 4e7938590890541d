package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/olive-vne/olive/internal/topo"
)

// serve-iris: the vnesimd daemon built from this checkout — Iris, OLIVE,
// one shard, deterministic virtual clock, metrics on, replanning on —
// driven over loopback. Each run starts serveDaemons daemons one after
// another, because throughput differs between daemon restarts; each
// daemon gets an open-loop phase at serveRate (two connections, latency
// timed from each request's due time, /metrics scraped once a second on
// a third), an admin replan, a closed-loop phase on two connections, and
// a second replan. The server decides in microseconds of a round trip of
// a few hundred, so HTTP, JSON, middleware, metrics and the shard queue
// dominate here.
const (
	serveDaemons   = 5
	serveRate      = 6000 // open-loop offered rate, requests/s; at 3000 the idle CPUs made round trips bimodal
	serveLanes     = 2    // connections per phase
	serveOpenShare = 0.6  // of a daemon's measuring time; the closed loop gets the rest
	serveLambda    = 3    // the daemon's plan history: λ=3 at u=1.0
	serveUtil      = 1.0
	serveTailCap   = 0.9   // p95 and p99 moved several-fold between daemons; p90 repeats
	closedMaxRate  = 60000 // sizes the stream; the closed loop stops early if it runs out
	// Host stalls last seconds and can back a daemon up, so latency and
	// throughput are taken per window of a phase and reported as the
	// median over all windows of all daemons.
	openWindow   = 500 * time.Millisecond
	closedWindow = 250 * time.Millisecond
)

// daemonBin is the vnesimd binary run.sh builds.
var daemonBin = filepath.Join(".bench_build", "vnesimd")

// embedResp mirrors the fields of vnesimd's /v1/embed response the
// benchmark checks and measures.
type embedResp struct {
	Accepted  bool    `json:"accepted"`
	Cost      float64 `json:"cost"`
	LatencyUS int64   `json:"latency_us"`
}

type embedReq struct {
	App      int     `json:"app"`
	Ingress  int     `json:"ingress"`
	Demand   float64 `json:"demand"`
	Duration int     `json:"duration"`
	Arrive   int     `json:"arrive"`
}

// serveStream generates the request bodies the daemons receive: an MMPP
// stream on Iris over the daemon's four applications, long enough for
// one daemon's open and closed loops.
func serveStream(seed uint64, n int) ([][]byte, error) {
	g, err := buildTopo(topo.Iris)
	if err != nil {
		return nil, err
	}
	perSlot := serveLambda * float64(len(g.EdgeNodes()))
	slots := int(1.5*float64(n)/perSlot) + 20
	tr, err := mmpp(g, serveUtil, serveLambda, slots, len(catalogue()), streamServeRequests)
	if err != nil {
		return nil, err
	}
	if tr, err = reorder(tr, rand.New(rand.NewPCG(seed, streamServeOrder))); err != nil {
		return nil, err
	}
	if len(tr.Requests) < n {
		return nil, fmt.Errorf("stream has %d requests, want %d", len(tr.Requests), n)
	}
	bodies := make([][]byte, n)
	for i, r := range tr.Requests[:n] {
		if bodies[i], err = json.Marshal(embedReq{App: r.App, Ingress: int(r.Ingress),
			Demand: r.Demand, Duration: r.Duration, Arrive: r.Arrive}); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// daemon is one running vnesimd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
	logf   *os.File
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches vnesimd and returns once /healthz answers 200,
// with the time that took.
func startDaemon(logPath string, cpu int) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(daemonBin, "-topo", "iris", "-algo", "olive", "-shards", "1",
		"-deterministic", "-replan", "-addr", addr)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := startPinned(cmd, cpu); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", daemonBin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, exited: make(chan error, 1), logf: logf}
	go func() { d.exited <- cmd.Wait() }()
	for time.Since(t0) < time.Minute {
		select {
		case err := <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("vnesimd exited during start-up (%v); log in %s", err, logPath)
		default:
		}
		if c, err := dial(addr); err == nil {
			status, _, err := c.do("GET", "/healthz", nil)
			c.Close()
			if err == nil && status == 200 {
				return d, time.Since(t0), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, 0, errors.New("vnesimd not healthy after a minute")
}

// stop sends SIGTERM, waits for the drain, and kills the daemon if it
// has not exited within 15 s.
func (d *daemon) stop() error {
	defer d.logf.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-d.exited
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("vnesimd did not drain within 15 s; killed")
	}
}

// reply is one /v1/embed answer as read off the wire.
type reply struct {
	status int
	body   []byte
	err    error
}

// check decodes a reply and reports whether it is a decodable 200.
func (r reply) check() (embedResp, error) {
	var e embedResp
	if r.err != nil {
		return e, r.err
	}
	if r.status != 200 {
		return e, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if err := json.Unmarshal(r.body, &e); err != nil {
		return e, fmt.Errorf("decode response: %w", err)
	}
	if e.LatencyUS < 0 {
		return e, fmt.Errorf("negative latency_us %d", e.LatencyUS)
	}
	return e, nil
}

// openResult is what one daemon's open-loop phase measured.
type openResult struct {
	samples []sample
	replies []reply
	scrapes []float64 // /metrics scrape times, ms
	wall    time.Duration
}

// openLoop offers bodies[:n] at serveRate over serveLanes connections:
// request i is due at i/serveRate and goes to lane i mod serveLanes. A
// scraper reads /metrics once a second meanwhile.
func openLoop(tr *tracer, addr string, bodies [][]byte, n int) (*openResult, error) {
	res := &openResult{samples: make([]sample, n), replies: make([]reply, n)}
	conns := make([]*conn, serveLanes)
	for k := range conns {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[k] = c
	}
	start := time.Now().Add(5 * time.Millisecond)
	now := func() time.Duration { return time.Since(start) }

	stopScrape := make(chan struct{})
	var wg sync.WaitGroup
	var scrapeErr error
	scrapeTr := tr.sub()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := dial(addr)
		if err != nil {
			scrapeErr = err
			return
		}
		defer c.Close()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			status, _, err := c.do("GET", "/metrics", nil)
			t1 := time.Now()
			if err == nil && status != 200 {
				err = fmt.Errorf("GET /metrics: status %d", status)
			}
			if err != nil {
				scrapeErr = err
				return
			}
			scrapeTr.add("obs.scrape", t0, t1, -1, -1)
			res.scrapes = append(res.scrapes, ms(t1.Sub(t0)))
		}
	}()

	lanes := make([]*tracer, serveLanes)
	errs := make([]error, serveLanes)
	var lanesWG sync.WaitGroup
	for k := range serveLanes {
		lanes[k] = tr.sub()
		var idx []int
		var dues []time.Duration
		for i := k; i < n; i += serveLanes {
			idx = append(idx, i)
			dues = append(dues, time.Duration(float64(i)/serveRate*1e9))
		}
		lanesWG.Add(1)
		go func(k int, lt *tracer, c *conn) {
			defer lanesWG.Done()
			root := lt.open("load.lane", start, -1, -1)
			waitUntil := func(d time.Duration) {
				t0 := time.Now()
				sleepUntil(start.Add(d))
				lt.add("load.wait", t0, time.Now(), root, -1)
			}
			smp, err := runLane(dues, now, waitUntil, func(j int) error {
				i := idx[j]
				t0 := time.Now()
				status, body, err := c.do("POST", "/v1/embed", bodies[i])
				lt.add("serve.request", t0, time.Now(), root, int64(i))
				res.replies[i] = reply{status: status, body: body, err: err}
				return err
			})
			lt.close(root, time.Now())
			for j, s := range smp {
				res.samples[idx[j]] = s
			}
			errs[k] = err
		}(k, lanes[k], conns[k])
	}
	lanesWG.Wait()
	res.wall = now()
	close(stopScrape)
	wg.Wait()
	for _, lt := range append(lanes, scrapeTr) {
		tr.merge(lt)
	}
	if err := errors.Join(append(errs, scrapeErr)...); err != nil {
		return nil, err
	}
	return res, nil
}

// closedLoop sends bodies from first on serveLanes connections, each
// request after the previous answer, until d has passed or the stream
// ends. It returns the replies, each answer's completion time since the
// phase start, and the wall time.
func closedLoop(addr string, bodies [][]byte, first int, d time.Duration) ([]reply, []time.Duration, time.Duration, error) {
	var next atomic.Int64
	next.Store(int64(first))
	out := make([][]reply, serveLanes)
	at := make([][]time.Duration, serveLanes)
	errs := make([]error, serveLanes)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for k := range serveLanes {
		c, err := dial(addr)
		if err != nil {
			return nil, nil, 0, err
		}
		defer c.Close()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				status, body, err := c.do("POST", "/v1/embed", bodies[i])
				if err != nil {
					errs[k] = err
					return
				}
				out[k] = append(out[k], reply{status: status, body: body})
				at[k] = append(at[k], time.Since(start))
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []reply
	var times []time.Duration
	for k := range out {
		all = append(all, out[k]...)
		times = append(times, at[k]...)
	}
	return all, times, wall, errors.Join(errs...)
}

// replan triggers POST /v1/admin/replan and returns its round trip. The
// published plan generation must become want.
func replan(addr string, want int64) (time.Duration, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	t0 := time.Now()
	status, body, err := c.do("POST", "/v1/admin/replan", nil)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	var r struct {
		Generation int64 `json:"generation"`
	}
	if status != 200 {
		return 0, fmt.Errorf("replan: status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("replan: decode: %w", err)
	}
	if r.Generation != want {
		return 0, fmt.Errorf("replan published generation %d, want %d", r.Generation, want)
	}
	return d, nil
}

// scrapeTotals reads /metrics and sums each wanted sample name over its
// label sets.
func scrapeTotals(addr string, names ...string) (map[string]float64, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	status, body, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, rest, ok = line[:i], line[strings.LastIndexByte(line, '}')+1:], true
		}
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] += v
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, sc.Err()
}

func runServe(cfg config, rep *report) error {
	// The daemon runs on one P pinned to one CPU and the generator on two
	// Ps (one per connection) pinned to another, so neither preempts the
	// other and every daemon sees the same placement.
	runtime.GOMAXPROCS(serveLanes)
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	if len(cpus) < 2 {
		return fmt.Errorf("serve-iris needs 2 CPUs, this process may use %v", cpus)
	}
	if err := pinProcess(cpus[0]); err != nil {
		return fmt.Errorf("pin load generator: %w", err)
	}
	if _, err := os.Stat(daemonBin); err != nil {
		return fmt.Errorf("daemon binary: %w (run.sh builds it)", err)
	}
	per := time.Duration(cfg.Seconds) * time.Second / serveDaemons
	openDur := time.Duration(float64(per) * serveOpenShare)
	nOpen := int(serveRate * openDur.Seconds())
	bodies, err := serveStream(cfg.Seed, nOpen+int(closedMaxRate*(per-openDur).Seconds()))
	if err != nil {
		return err
	}

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var setups, rss, rates, daemonRates, rebuilds, scrapes []float64
	var p50s, tails, late, rtt, decision, httpUS, costs []float64
	var tl tail
	var traced, untraced []float64 // per-daemon median round trip, µs
	var laneWall float64
	accepted, answered := 0, 0
	var waitSum, waitN, solveSum, solveN, shed float64
	for k := range serveDaemons {
		d, setup, err := startDaemon(filepath.Join(".bench_build", fmt.Sprintf("vnesimd-%d.log", k)), cpus[1])
		if err != nil {
			return err
		}
		err = func() error {
			// Traced runs trace every other daemon; the round trips of the
			// untraced ones give the tracing overhead.
			var t *tracer
			if tr != nil && k%2 == 0 {
				t = tr
			}
			first := 0
			if t != nil {
				first = len(tr.spans)
			}
			open, err := openLoop(t, d.addr, bodies, nOpen)
			if err != nil {
				return err
			}
			var rtts, lat []float64
			var due []time.Duration
			for i, r := range open.replies {
				e, err := r.check()
				rep.op(err)
				if err != nil {
					continue
				}
				s := open.samples[i]
				dec := time.Duration(e.LatencyUS) * time.Microsecond
				lat = append(lat, ms(s.Latency()))
				due = append(due, s.Due)
				late = append(late, ms(s.Late()))
				rtts = append(rtts, us(s.Done-s.Send))
				decision = append(decision, float64(e.LatencyUS))
				httpUS = append(httpUS, us(s.Done-s.Send-dec))
				answered++
				if e.Accepted {
					accepted++
					costs = append(costs, e.Cost)
				}
			}
			rtt = append(rtt, rtts...)
			for _, w := range byWindow(due, lat, openWindow, serveRate*openWindow.Seconds()/2) {
				var ok bool
				if tl, ok = tailQuantile(w, serveTailCap); !ok {
					return fmt.Errorf("too few open-loop samples (%d) for a tail", len(w))
				}
				p50s = append(p50s, nearestRank(w, 0.5))
				tails = append(tails, tl.Value)
			}
			if t != nil {
				addDecisionSpans(tr, first, open)
				traced = append(traced, median(rtts))
				laneWall += float64(serveLanes)*open.wall.Seconds() + sum(open.scrapes)/1e3
			} else {
				untraced = append(untraced, median(rtts))
			}
			scrapes = append(scrapes, open.scrapes...)

			doReplan := func(gen int64) {
				rt, err := replan(d.addr, gen)
				rep.op(err)
				if err == nil {
					rebuilds = append(rebuilds, ms(rt))
				}
			}
			doReplan(1)
			replies, at, wall, err := closedLoop(d.addr, bodies, nOpen, per-openDur)
			if err != nil {
				return err
			}
			for _, r := range replies {
				_, err := r.check()
				rep.op(err)
			}
			daemonRates = append(daemonRates, float64(len(replies))/wall.Seconds())
			rates = append(rates, windowRates(at, wall, closedWindow)...)
			doReplan(2)

			m, err := scrapeTotals(d.addr, "vne_queue_wait_seconds_sum", "vne_queue_wait_seconds_count",
				"vne_solve_duration_seconds_sum", "vne_solve_duration_seconds_count", "vne_shed_total")
			if err != nil {
				return err
			}
			waitSum += m["vne_queue_wait_seconds_sum"]
			waitN += m["vne_queue_wait_seconds_count"]
			solveSum += m["vne_solve_duration_seconds_sum"]
			solveN += m["vne_solve_duration_seconds_count"]
			shed += m["vne_shed_total"]
			r, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
			if err != nil {
				return err
			}
			rss = append(rss, r)
			return nil
		}()
		if stopErr := d.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("stop vnesimd: %w", stopErr)
		}
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
	}
	if len(p50s) == 0 || len(rebuilds) == 0 || len(rates) == 0 {
		return errors.New("serve-iris measured nothing")
	}
	rep.E2E["setup_s"] = median(setups)
	rep.E2E["peak_rss_mb"] = median(rss)
	rep.E2E["accept_ratio"] = ratio(float64(accepted), float64(answered))
	rep.E2E["cost"] = mean(costs)
	rep.E2E["p50_ms"] = median(p50s)
	rep.E2E["tail_ms"] = median(tails)
	rep.E2E["rate_per_s"] = median(rates)
	rep.E2E["rebuild_p50_ms"] = median(rebuilds)
	fmt.Fprintf(os.Stderr, "serve-iris: %d daemons; open loop %d requests at %d/s each; tail_ms is p%g of ~%d samples per %v window (%d beyond), median of %d windows\n",
		serveDaemons, nOpen, serveRate, 100*tl.P, tl.N, openWindow, tl.Beyond, len(tails))
	fmt.Fprintf(os.Stderr, "serve-iris: closed loop per daemon %.0f req/s; median of %d %v windows %.0f req/s\n",
		daemonRates, len(rates), closedWindow, median(rates))

	tailOf := func(xs []float64) float64 { return nearestRank(sortedCopy(xs), tl.P) }
	rep.Layer["serve.rtt_us.p50"] = median(rtt)
	rep.Layer["serve.rtt_us.tail"] = tailOf(rtt)
	rep.Layer["serve.decision_us.p50"] = median(decision)
	rep.Layer["serve.decision_us.tail"] = tailOf(decision)
	rep.Layer["serve.http_us.p50"] = median(httpUS)
	rep.Layer["serve.http_us.tail"] = tailOf(httpUS)
	rep.Layer["serve.queue_wait_us_mean"] = 1e6 * ratio(waitSum, waitN)
	rep.Layer["serve.solve_us_mean"] = 1e6 * ratio(solveSum, solveN)
	rep.Layer["obs.scrape_ms"] = median(scrapes)
	rep.Layer["serve.shed"] = shed
	s := sortedCopy(late)
	rep.Layer["load.late_ms.p50"] = nearestRank(s, 0.5)
	rep.Layer["load.late_ms.p99"] = nearestRank(s, 0.99)
	rep.Layer["tail.percentile"] = 100 * tl.P
	rep.Layer["tail.samples"] = float64(tl.N)
	rep.Layer["tail.beyond"] = float64(tl.Beyond)
	if tr != nil {
		return finishTrace(cfg, rep, tr, laneWall, traced, untraced)
	}
	return nil
}

// addDecisionSpans puts each answered request's server-side decision
// time, as the response reports it, at the end of its request span; the
// rest of the round trip is HTTP, JSON and the loopback.
func addDecisionSpans(tr *tracer, first int, open *openResult) {
	n := len(tr.spans)
	for i := first; i < n; i++ {
		s := tr.spans[i]
		if s.Name != "serve.request" {
			continue
		}
		e, err := open.replies[s.Req].check()
		if err != nil {
			continue
		}
		dec := min(e.LatencyUS*1000, s.End-s.Start)
		tr.spans = append(tr.spans, span{Name: "serve.decision", Start: s.End - dec, End: s.End, Parent: int32(i), Req: s.Req})
	}
}
