package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// online-r100-u140: OLIVE's Algorithm 2 through core.Engine on Random100
// at the paper's rate λ=10 and 140% utilization. Set-up builds the plan
// from a 200-slot history under the QuickConfig options; each pass then
// feeds the online slots to a fresh engine (StartSlot, then Process per
// request in arrival order) on one goroutine. At 140% load every
// Algorithm 2 path fires, so the median follows the plan lookup and the
// tail the greedy and preemption paths.
const (
	onlineHistSlots = 200
	onlineSlots     = 200
	onlineLambda    = 10
	onlineUtil      = 1.4
	onlineTailCap   = 0.99 // highest percentile tail_ms may report
	swapSamples     = 64   // SwapPlan calls timed per pass
	onlineSetups    = 3    // set-ups per run; setup_s is their median
)

// Outcome classes, indexing outcomeClasses.
const (
	classPlanned = iota
	classUnplanned
	classPreempting
	classRejected
)

func classOf(o core.Outcome) uint8 {
	switch {
	case !o.Accepted:
		return classRejected
	case len(o.Preempted) > 0:
		return classPreempting
	case o.Planned:
		return classPlanned
	}
	return classUnplanned
}

type onlineInputs struct {
	g      *graph.Graph
	apps   []*vnet.App
	psi    []float64
	plan   *plan.Plan
	online *workload.Trace
	slots  [][]workload.Request
	oracle *embedder.Oracle
}

func onlineSetup(seed uint64) (*onlineInputs, error) {
	g, err := buildTopo(topo.Random100)
	if err != nil {
		return nil, err
	}
	apps := catalogue()
	full, err := mmpp(g, onlineUtil, onlineLambda, onlineHistSlots+onlineSlots, len(apps), streamOnlineTrace)
	if err != nil {
		return nil, err
	}
	hist, online, err := full.Split(onlineHistSlots)
	if err != nil {
		return nil, err
	}
	if online, err = reorder(online, rand.New(rand.NewPCG(seed, streamOnlineOrder))); err != nil {
		return nil, err
	}
	p, err := plan.BuildFromHistory(g, apps, hist, quickPlanOptions(), rand.New(rand.NewPCG(scenarioSeed, streamOnlinePlan)))
	if err != nil {
		return nil, fmt.Errorf("build plan: %w", err)
	}
	if err := p.Validate(g); err != nil {
		return nil, fmt.Errorf("setup plan: %w", err)
	}
	psi := make([]float64, len(apps))
	for i, a := range apps {
		psi[i] = plan.DefaultRejectionFactor(g, a)
	}
	return &onlineInputs{
		g: g, apps: apps, psi: psi, plan: p, online: online, slots: online.PerSlot(),
		oracle: embedder.ForState(substrate.New(g)),
	}, nil
}

// passLog is what one pass records per request, in arrival order.
type passLog struct {
	class    []uint8
	dur      []time.Duration // Process call
	contrib  []float64       // accepted embedding's cost per slot
	preempt  []int           // preempted request IDs, all requests' lists back to back
	preOff   []int           // request i's IDs are preempt[preOff[i]:preOff[i+1]]
	slotDur  []time.Duration // StartSlot calls
	slotWall []time.Duration // StartSlot through the slot's last Process
	wall     time.Duration
	cost     float64
	accepted int // accepted and never preempted
	finger   uint64
}

func newPassLog(n, slots int) *passLog {
	return &passLog{
		class: make([]uint8, 0, n), dur: make([]time.Duration, 0, n),
		contrib: make([]float64, 0, n), preOff: make([]int, 0, n+1),
		slotDur: make([]time.Duration, 0, slots), slotWall: make([]time.Duration, 0, slots),
	}
}

// reset empties the log for the next pass, keeping its buffers.
func (lg *passLog) reset() {
	*lg = passLog{class: lg.class[:0], dur: lg.dur[:0], contrib: lg.contrib[:0],
		preempt: lg.preempt[:0], preOff: append(lg.preOff[:0], 0),
		slotDur: lg.slotDur[:0], slotWall: lg.slotWall[:0]}
}

// onlinePass runs the online slots once through a fresh engine. Only the
// engine calls sit inside the timers; cost accounting, the fingerprint
// and the invariant check run after the pass.
func onlinePass(tr *tracer, in *onlineInputs, lg *passLog) (*core.Engine, error) {
	eng, err := core.NewEngineOn(in.oracle, in.apps, core.Options{Plan: in.plan})
	if err != nil {
		return nil, err
	}
	lg.reset()
	start := time.Now()
	root := tr.open("online.pass", start, -1, -1)
	for t, reqs := range in.slots {
		t0 := time.Now()
		eng.StartSlot(t)
		t1 := time.Now()
		lg.slotDur = append(lg.slotDur, t1.Sub(t0))
		tr.add("core.startslot", t0, t1, root, -1)
		for _, r := range reqs {
			t0 := time.Now()
			out, err := eng.Process(r)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("process request %d: %w", r.ID, err)
			}
			c := classOf(out)
			lg.class = append(lg.class, c)
			lg.dur = append(lg.dur, t1.Sub(t0))
			tr.add(processSpan[c], t0, t1, root, int64(r.ID))
			cost := 0.0
			if out.Accepted {
				cost = out.Emb.Cost(r.Demand)
			}
			lg.contrib = append(lg.contrib, cost)
			lg.preempt = append(lg.preempt, out.Preempted...)
			lg.preOff = append(lg.preOff, len(lg.preempt))
		}
		lg.slotWall = append(lg.slotWall, time.Since(t0))
	}
	end := time.Now()
	tr.close(root, end)
	lg.wall = end.Sub(start)
	return eng, nil
}

// processSpan names each outcome class's Process spans, built once so the
// per-request call site does not concatenate.
var processSpan = func() (names [len(outcomeClasses)]string) {
	for c, name := range outcomeClasses {
		names[c] = "core.process." + name
	}
	return names
}()

// account computes the paper's total cost — Eq. 3 resource cost summed
// per slot plus Eq. 4 rejection cost of rejected and preempted requests —
// in the order sim.Run's accounting uses, so the sum is bit-stable, and
// fingerprints the decisions.
func account(in *onlineInputs, lg *passLog) {
	type live struct {
		contrib float64
		departs int
	}
	liveReqs := map[int]live{}
	preempted := map[int]bool{}
	var gone []int
	var running, resource float64
	h := fnv.New64a()
	var buf [9]byte
	i := 0
	for t, reqs := range in.slots {
		gone = gone[:0]
		for id, lr := range liveReqs {
			if lr.departs <= t {
				gone = append(gone, id)
			}
		}
		sort.Ints(gone)
		for _, id := range gone {
			running -= liveReqs[id].contrib
			delete(liveReqs, id)
		}
		for _, r := range reqs {
			for _, pid := range lg.preempt[lg.preOff[i]:lg.preOff[i+1]] {
				if lr, ok := liveReqs[pid]; ok {
					running -= lr.contrib
					delete(liveReqs, pid)
					preempted[pid] = true
				}
			}
			if lg.class[i] != classRejected {
				liveReqs[r.ID] = live{contrib: lg.contrib[i], departs: r.Departs()}
				running += lg.contrib[i]
			}
			buf[0] = lg.class[i]
			h.Write(buf[:1])
			i++
		}
		resource += running
	}
	var rejection float64
	accepted := 0
	i = 0
	for _, reqs := range in.slots {
		for _, r := range reqs {
			if lg.class[i] == classRejected || preempted[r.ID] {
				rejection += in.psi[r.App] * r.Demand * float64(r.Duration)
			} else {
				accepted++
			}
			i++
		}
	}
	for _, id := range lg.preempt {
		for k := range 8 {
			buf[k] = byte(id >> (8 * k))
		}
		h.Write(buf[:8])
	}
	lg.cost = resource + rejection
	lg.accepted = accepted
	lg.finger = h.Sum64()
}

// timeSwaps times Engine.SwapPlan — the engine's side of adopting a
// rebuilt plan — on the loaded engine a pass leaves behind.
func timeSwaps(eng *core.Engine, p *plan.Plan) []float64 {
	out := make([]float64, 0, swapSamples)
	for range swapSamples {
		t0 := time.Now()
		eng.SwapPlan(p)
		out = append(out, ms(time.Since(t0)))
	}
	return out
}

func runOnline(cfg config, rep *report) error {
	if err := pinSingle(); err != nil {
		return err
	}
	var setups []float64
	var in *onlineInputs
	for range onlineSetups {
		t0 := time.Now()
		var err error
		if in, err = onlineSetup(cfg.Seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}
	n := len(in.online.Requests)

	// The first pass fills the substrate's path caches and is the
	// reference every timed pass must reproduce exactly.
	ref := newPassLog(n, len(in.slots))
	eng, err := onlinePass(nil, in, ref)
	if err != nil {
		return err
	}
	rep.ops(n, eng.CheckInvariants())
	account(in, ref)

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	// Host stalls come in bursts that hit a few slots of one pass, so the
	// pass time is the sum over slots of each slot's median time across
	// passes, and latency figures are medians of per-pass figures.
	slotWalls := make([][]float64, len(in.slots))
	var p50s, tails, slotUS, swaps []float64
	var classP50, classP99 [4][]float64
	var classBusy [4]time.Duration
	var passWall [2][]float64 // [untraced, traced]
	var wallSum time.Duration
	var tl tail
	lg := newPassLog(n, len(in.slots))
	durs := make([]float64, 0, n)
	var classDur [4][]float64
	end := deadline(cfg)
	for k := 0; k < 3 || time.Now().Before(end); k++ {
		var t *tracer
		if tr != nil && k%2 == 0 {
			t = tr
			t.reserve(n + 2*len(in.slots) + 1)
		}
		eng, err := onlinePass(t, in, lg)
		if err != nil {
			return err
		}
		// A pass's requests pass their checks together: the engine's
		// invariants hold afterwards and every decision and the total
		// cost repeat the reference pass exactly.
		err = eng.CheckInvariants()
		swaps = append(swaps, timeSwaps(eng, in.plan)...)
		account(in, lg)
		if err == nil && (lg.finger != ref.finger || math.Float64bits(lg.cost) != math.Float64bits(ref.cost)) {
			err = fmt.Errorf("pass %d decisions differ from the reference pass (cost %v vs %v)", k, lg.cost, ref.cost)
		}
		rep.ops(n, err)
		traced := 0
		if t != nil {
			traced = 1
		}
		passWall[traced] = append(passWall[traced], lg.wall.Seconds())
		wallSum += lg.wall
		for i, d := range lg.slotWall {
			slotWalls[i] = append(slotWalls[i], d.Seconds())
		}
		for _, d := range lg.slotDur {
			slotUS = append(slotUS, us(d))
		}

		durs = durs[:0]
		for c := range classDur {
			classDur[c] = classDur[c][:0]
		}
		for i, d := range lg.dur {
			c := lg.class[i]
			durs = append(durs, ms(d))
			classDur[c] = append(classDur[c], us(d))
			classBusy[c] += d
		}
		sort.Float64s(durs)
		var ok bool
		if tl, ok = tailQuantile(durs, onlineTailCap); !ok {
			return fmt.Errorf("too few Process samples (%d) for a tail", len(durs))
		}
		p50s = append(p50s, nearestRank(durs, 0.5))
		tails = append(tails, tl.Value)
		for c := range classDur {
			if len(classDur[c]) > 0 {
				sort.Float64s(classDur[c])
				classP50[c] = append(classP50[c], nearestRank(classDur[c], 0.5))
				classP99[c] = append(classP99[c], nearestRank(classDur[c], 0.99))
			}
		}
	}
	var passTime float64
	for _, w := range slotWalls {
		passTime += median(w)
	}

	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	rep.E2E["setup_s"] = median(setups)
	rep.E2E["peak_rss_mb"] = rss
	rep.E2E["accept_ratio"] = float64(ref.accepted) / float64(n)
	rep.E2E["cost"] = ref.cost
	rep.E2E["p50_ms"] = median(p50s)
	rep.E2E["tail_ms"] = median(tails)
	rep.E2E["rate_per_s"] = float64(n) / passTime
	rep.E2E["rebuild_p50_ms"] = median(swaps)
	fmt.Fprintf(os.Stderr, "online-r100-u140: %d passes of %d requests; tail_ms is p%g of %d samples per pass (%d beyond)\n",
		len(p50s), n, 100*tl.P, tl.N, tl.Beyond)

	rep.Layer["core.startslot_us"] = median(slotUS)
	counts := [4]int{}
	for _, c := range ref.class {
		counts[c]++
	}
	for c, name := range outcomeClasses {
		rep.Layer["core.process_us."+name+".p50"] = median(classP50[c])
		rep.Layer["core.process_us."+name+".p99"] = median(classP99[c])
		rep.Layer["core.busy_share."+name] = ratio(float64(classBusy[c]), float64(wallSum))
		rep.Layer["core.share."+name] = float64(counts[c]) / float64(n)
	}
	rep.Layer["tail.percentile"] = 100 * tl.P
	rep.Layer["tail.samples"] = float64(tl.N)
	rep.Layer["tail.beyond"] = float64(tl.Beyond)
	if tr != nil {
		return finishTrace(cfg, rep, tr, sum(passWall[1]), passWall[1], passWall[0])
	}
	return nil
}
