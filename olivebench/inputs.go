package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// topoSeed pins the substrate: a named topology is part of the system's
// configuration, not of the seeded input.
const topoSeed = 1

// scenarioSeed pins every workload's trace and the plan's bootstrap
// resampling. Which edge nodes are popular, when the MMPP bursts come and
// which bootstrap draws the plan gets move the work of a run by up to
// several-fold, so inputs drawn per seed would measure the draw, not the
// program. --seed draws the order of the arrivals inside each slot
// (reorder): the same requests at the same slots, met in another order.
const scenarioSeed = 1

// Stream identifiers keep each workload's random draws apart; --seed
// selects the point within every stream.
const (
	streamPlanHistory   = 0x9a11
	streamPlanCold      = 0xc01d
	streamPlanOrder     = 0x9a12
	streamOnlineTrace   = 0x0e1e
	streamOnlinePlan    = 0x0e1f
	streamOnlineOrder   = 0x0e20
	streamServeRequests = 0x5e7e
	streamServeOrder    = 0x5e7f
)

// catalogue is the fixed application set. It is drawn the way vnesimd
// draws its set for its default -seed 1, so the in-process workloads and
// the daemon serve the same four applications; the seed varies only the
// requests.
func catalogue() []*vnet.App {
	return vnet.DefaultMix(vnet.DefaultParams(), rand.New(rand.NewPCG(1, 0x51f0)))
}

// mmpp draws a workload's pinned MMPP trace at the simulator's
// calibration: demand mean u·100/λ keeps edge utilization at u for any
// arrival rate λ.
func mmpp(g *graph.Graph, util, lambda float64, slots, numApps int, stream uint64) (*workload.Trace, error) {
	wp := workload.DefaultParams().WithUtilization(util)
	wp.Slots = slots
	wp.LambdaPerNode = lambda
	wp.NumApps = numApps
	wp.DemandMean = util * 100 / lambda
	tr, err := workload.GenerateMMPP(g, wp, rand.New(rand.NewPCG(scenarioSeed, stream)))
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	return tr, nil
}

// reorder returns tr with the arrivals of every slot shuffled by rng and
// the IDs renumbered in the new order: the same requests in the same
// slots, met in another order.
func reorder(tr *workload.Trace, rng *rand.Rand) (*workload.Trace, error) {
	out := &workload.Trace{Slots: tr.Slots, Requests: append([]workload.Request(nil), tr.Requests...)}
	rs := out.Requests
	for lo := 0; lo < len(rs); {
		hi := lo + 1
		for hi < len(rs) && rs[hi].Arrive == rs[lo].Arrive {
			hi++
		}
		rng.Shuffle(hi-lo, func(i, j int) { rs[lo+i], rs[lo+j] = rs[lo+j], rs[lo+i] })
		lo = hi
	}
	for i := range rs {
		rs[i].ID = i
	}
	return out, out.Validate()
}

// window returns the requests arriving in [from, from+n), rebased to
// slot 0. tr must extend past from+n.
func window(tr *workload.Trace, from, n int) (*workload.Trace, error) {
	rest := tr
	if from > 0 {
		var err error
		if _, rest, err = tr.Split(from); err != nil {
			return nil, err
		}
	}
	w, _, err := rest.Split(n)
	return w, err
}

// quickPlanOptions are the simulator's QuickConfig plan options: 30
// bootstrap replicates and 4 column-generation pricing rounds.
func quickPlanOptions() plan.Options {
	o := plan.DefaultOptions()
	o.BootstrapB = 30
	o.MaxPricingRounds = 4
	return o
}

func buildTopo(name topo.Name) (*graph.Graph, error) {
	g, err := topo.Build(name, topoSeed)
	if err != nil {
		return nil, fmt.Errorf("build topology %s: %w", name, err)
	}
	return g, nil
}
