package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/lp"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// plan-r100: PLAN-VNE on Random100 from an MMPP history of 200 slots at
// λ=3, u=1.4, under the QuickConfig plan options. One repetition builds
// the plan cold (Aggregate then Build on a fresh Solver, as the offline
// planner does) on window 0, then rebuilds it warm on the same Solver
// after the history window slides, as the daemon's replanner does. The
// host slows single builds by up to a third at random, so a run makes
// as many short repetitions as it can and reports medians.
const (
	planHistSlots = 200
	planLambda    = 3
	planUtil      = 1.4
	planSlide     = 20 // slots the history window moves per warm rebuild
	planWarm      = 1  // warm rebuilds per repetition: more repetitions, more cold samples
	planSetups    = 9  // set-ups per run; setup_s is their median
)

// buildRec is one timed build with the work counters it moved.
type buildRec struct {
	Agg, Build time.Duration
	Obj        float64
	Rounds     int
	Planned    float64 // planned share of aggregated demand
	// Counter deltas over the build.
	Pivots, Refactors, Scans            int64
	MasterSolves, OracleCalls, PoolHits int64
	WarmAttempts, WarmHits              int64
}

func (b buildRec) total() time.Duration { return b.Agg + b.Build }

// sameWork reports whether two builds of the same input did the same
// work and reached the same plan objective, bit for bit.
func (b buildRec) sameWork(o buildRec) error {
	a, c := b, o
	a.Agg, a.Build, c.Agg, c.Build = 0, 0, 0, 0
	if math.Float64bits(a.Obj) != math.Float64bits(c.Obj) || a != c {
		return fmt.Errorf("build not repeatable: %+v vs %+v", b, o)
	}
	return nil
}

type planInputs struct {
	g       *graph.Graph
	apps    []*vnet.App
	windows []*workload.Trace // window i starts at slot i·planSlide
}

func planSetup(seed uint64) (*planInputs, error) {
	g, err := buildTopo(topo.Random100)
	if err != nil {
		return nil, err
	}
	apps := catalogue()
	tr, err := mmpp(g, planUtil, planLambda, planHistSlots+planWarm*planSlide+1, len(apps), streamPlanHistory)
	if err != nil {
		return nil, err
	}
	if tr, err = reorder(tr, rand.New(rand.NewPCG(seed, streamPlanOrder))); err != nil {
		return nil, err
	}
	in := &planInputs{g: g, apps: apps}
	for i := 0; i <= planWarm; i++ {
		w, err := window(tr, i*planSlide, planHistSlots)
		if err != nil {
			return nil, err
		}
		in.windows = append(in.windows, w)
	}
	return in, nil
}

// buildOnce aggregates hist and builds on solver, timing the two calls
// and reading the lp and plan counters around them.
func buildOnce(tr *tracer, parent int, in *planInputs, solver *plan.Solver, hist *workload.Trace, rng *rand.Rand) (buildRec, *plan.Plan, error) {
	opts := quickPlanOptions()
	l0, p0 := lp.Stats(), plan.Stats()
	t0 := time.Now()
	classes, err := plan.Aggregate(hist, len(in.apps), opts.Alpha, opts.BootstrapB, rng)
	t1 := time.Now()
	if err != nil {
		return buildRec{}, nil, fmt.Errorf("aggregate: %w", err)
	}
	p, err := solver.Build(classes, opts)
	t2 := time.Now()
	if err != nil {
		return buildRec{}, nil, fmt.Errorf("build: %w", err)
	}
	l1, p1 := lp.Stats(), plan.Stats()
	tr.add("plan.aggregate", t0, t1, parent, -1)
	tr.add("plan.build", t1, t2, parent, -1)
	return buildRec{
		Agg: t1.Sub(t0), Build: t2.Sub(t1),
		Obj: p.Obj, Rounds: p.PricingRounds, Planned: plannedShare(p),
		Pivots:       l1.Pivots - l0.Pivots,
		Refactors:    l1.Refactorizations - l0.Refactorizations,
		Scans:        l1.PricingScans - l0.PricingScans,
		MasterSolves: p1.MasterSolves - p0.MasterSolves,
		OracleCalls:  p1.PriceOracleCalls - p0.PriceOracleCalls,
		PoolHits:     p1.PricePoolHits - p0.PricePoolHits,
		WarmAttempts: l1.WarmAttempts - l0.WarmAttempts,
		WarmHits:     l1.WarmHits - l0.WarmHits,
	}, p, nil
}

// plannedShare is the share of the aggregated class demand the plan
// guarantees: Σ d·Σφ over Σ d.
func plannedShare(p *plan.Plan) float64 {
	var planned, total float64
	for i := range p.Classes {
		planned += p.Classes[i].PlannedDemand()
		total += p.Classes[i].Class.Demand
	}
	return ratio(planned, total)
}

// planRep runs one repetition: a cold build on window 0, then the warm
// rebuilds. Each plan is validated outside the timers; valid[i] is build
// i's result.
func planRep(tr *tracer, in *planInputs) (recs []buildRec, valid []error, err error) {
	root := tr.open("plan.rep", time.Now(), -1, -1)
	solver := plan.NewSolver(in.g, in.apps)
	for i, w := range in.windows {
		// Rebuild i draws PCG(·, i), as the replanner draws per generation.
		name, rng := "plan.warm", rand.New(rand.NewPCG(scenarioSeed, uint64(i)))
		if i == 0 {
			name, rng = "plan.cold", rand.New(rand.NewPCG(scenarioSeed, streamPlanCold))
		}
		sp := tr.open(name, time.Now(), root, -1)
		rec, p, err := buildOnce(tr, sp, in, solver, w, rng)
		tr.close(sp, time.Now())
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		valid = append(valid, p.Validate(in.g))
		tr.add("check.validate", t, time.Now(), root, -1)
		recs = append(recs, rec)
	}
	tr.close(root, time.Now())
	return recs, valid, nil
}

func runPlan(cfg config, rep *report) error {
	if err := pinSingle(); err != nil {
		return err
	}
	var setups []float64
	var in *planInputs
	for range planSetups {
		t0 := time.Now()
		var err error
		if in, err = planSetup(cfg.Seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}

	// The first repetition warms the process (lp workspaces, allocator)
	// and is the reference every later repetition must match exactly.
	ref, valid, err := planRep(nil, in)
	if err != nil {
		return err
	}
	for _, err := range valid {
		rep.op(err)
	}

	var all [][]buildRec
	var repWall [2][]float64 // [untraced, traced] repetition wall times
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	end := deadline(cfg)
	for n := 0; n < 2 || time.Now().Before(end); n++ {
		// Traced runs alternate traced and untraced repetitions; the
		// difference between the two is the tracing overhead.
		var t *tracer
		if tr != nil && n%2 == 0 {
			t = tr
		}
		t0 := time.Now()
		recs, valid, err := planRep(t, in)
		if err != nil {
			return err
		}
		traced := 0
		if t != nil {
			traced = 1
		}
		repWall[traced] = append(repWall[traced], time.Since(t0).Seconds())
		// Each build must yield a valid plan and repeat the reference
		// repetition's objective and counters exactly.
		for i := range recs {
			if valid[i] == nil {
				valid[i] = recs[i].sameWork(ref[i])
			}
			rep.op(valid[i])
		}
		all = append(all, recs)
	}

	var cold, warm, agg, build, wAgg, wBuild []float64
	for _, recs := range all {
		cold = append(cold, ms(recs[0].total()))
		agg = append(agg, ms(recs[0].Agg))
		build = append(build, ms(recs[0].Build))
		for _, r := range recs[1:] {
			warm = append(warm, ms(r.total()))
			wAgg = append(wAgg, ms(r.Agg))
			wBuild = append(wBuild, ms(r.Build))
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	c0 := ref[0]
	rep.E2E["setup_s"] = median(setups)
	rep.E2E["peak_rss_mb"] = rss
	rep.E2E["accept_ratio"] = c0.Planned
	rep.E2E["cost"] = c0.Obj
	rep.E2E["p50_ms"] = median(cold)
	rep.E2E["rebuild_p50_ms"] = median(warm)
	rep.E2E["tail_ms"] = nearestRank(sortedCopy(cold), 1)
	rep.E2E["rate_per_s"] = 1e3 / mean(cold)
	fmt.Fprintf(os.Stderr, "plan-r100: %d repetitions; cold build p50 %.1f ms, slowest %.1f ms; warm rebuild p50 %.1f ms of %d\n",
		len(all), median(cold), rep.E2E["tail_ms"], median(warm), len(warm))

	layerCounters(rep.Layer, "cold", ref[:1])
	layerCounters(rep.Layer, "warm", ref[1:])
	rep.Layer["plan.aggregate_ms.cold"] = median(agg)
	rep.Layer["plan.build_ms.cold"] = median(build)
	rep.Layer["plan.aggregate_ms.warm"] = median(wAgg)
	rep.Layer["plan.build_ms.warm"] = median(wBuild)
	if tr != nil {
		return finishTrace(cfg, rep, tr, sum(repWall[1]), repWall[1], repWall[0])
	}
	return nil
}

// layerCounters reports the work counters of one build kind, per build.
func layerCounters(m map[string]float64, kind string, recs []buildRec) {
	var s buildRec
	var rounds int
	for _, r := range recs {
		s.Pivots += r.Pivots
		s.Refactors += r.Refactors
		s.Scans += r.Scans
		s.MasterSolves += r.MasterSolves
		s.OracleCalls += r.OracleCalls
		s.PoolHits += r.PoolHits
		s.WarmAttempts += r.WarmAttempts
		s.WarmHits += r.WarmHits
		rounds += r.Rounds
	}
	n := float64(len(recs))
	m["lp.pivots."+kind] = float64(s.Pivots) / n
	m["lp.refactorizations."+kind] = float64(s.Refactors) / n
	m["lp.pricing_scans."+kind] = float64(s.Scans) / n
	m["plan.master_solves."+kind] = float64(s.MasterSolves) / n
	m["plan.oracle_calls."+kind] = float64(s.OracleCalls) / n
	m["plan.rounds."+kind] = float64(rounds) / n
	m["lp.warm_hit_ratio."+kind] = ratio(float64(s.WarmHits), float64(s.WarmAttempts))
	m["plan.pool_hit_ratio."+kind] = ratio(float64(s.PoolHits), float64(s.PoolHits+s.OracleCalls))
}
