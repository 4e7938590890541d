package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/olive-vne/olive/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.5, 50},
		{100, 0.99, 99}, // 0.99·100 must not round up to rank 100
		{100, 1, 100},
		{50, 0.99, 50}, // ceil(49.5): the maximum, not the 49th sample a truncating index gives
		{50, 0.5, 25},
		{1000, 0.999, 999},
		{7, 0.5, 4},
		{1, 0.99, 1},
	} {
		if got := nearestRank(seq(c.n), c.p); got != c.want {
			t.Errorf("nearestRank(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(empty) = %g, want 0", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		cap        float64
		wantP      float64
		wantBeyond int
		ok         bool
	}{
		{1000, 0.999, 0.99, 10, true}, // p99.9 has 1 beyond, p99 exactly 10
		{999, 0.999, 0.95, 49, true},  // p99 of 999 is rank 990: 9 beyond, too few
		{50, 0.99, 0.75, 12, true},    // p99, p95, p90 have 0, 2, 5 beyond
		{14400, 0.9, 0.9, 1440, true}, // the cap wins when it has enough
		{21, 0.99, 0.5, 10, true},
		{19, 0.99, 0, 0, false}, // even the median (rank 10) has only 9 beyond
	} {
		tl, ok := tailQuantile(seq(c.n), c.cap)
		if ok != c.ok || tl.P != c.wantP || tl.Beyond != c.wantBeyond {
			t.Errorf("tailQuantile(n=%d, cap=%g) = %+v, %v; want P=%g beyond=%d ok=%v",
				c.n, c.cap, tl, ok, c.wantP, c.wantBeyond, c.ok)
		}
		if ok && tl.Beyond < minBeyond {
			t.Errorf("n=%d: reported p%g with %d beyond", c.n, 100*tl.P, tl.Beyond)
		}
	}
}

// fakeClock is a phase clock that only moves when a request or a wait
// moves it.
type fakeClock struct{ now time.Duration }

func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const ms = time.Millisecond
	dues := make([]time.Duration, 10)
	for i := range dues {
		dues[i] = time.Duration(i) * ms
	}
	clk := &fakeClock{}
	samples, err := runLane(dues,
		func() time.Duration { return clk.now },
		func(d time.Duration) {
			clk.now = d
			if d == 9*ms {
				clk.now += 30 * time.Microsecond // the generator oversleeps once
			}
		},
		func(i int) error {
			clk.now += 100 * time.Microsecond
			if i == 3 {
				clk.now += 4900 * time.Microsecond // a 5 ms stall
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	us := time.Microsecond
	want := []struct{ latency, late time.Duration }{
		{100 * us, 0}, {100 * us, 0}, {100 * us, 0},
		{5 * ms, 0},         // the stalled request
		{4100 * us, 0},      // due at 4 ms, sent at 8 ms as soon as the lane freed
		{3200 * us, 0},      // the backlog drains one round trip at a time
		{2300 * us, 0},      //
		{1400 * us, 0},      //
		{500 * us, 0},       //
		{130 * us, 30 * us}, // caught up; the oversleep is the generator's lateness
	}
	for i, s := range samples {
		if s.Latency() != want[i].latency || s.Late() != want[i].late {
			t.Errorf("request %d: latency %v late %v, want %v and %v", i, s.Latency(), s.Late(), want[i].latency, want[i].late)
		}
		// Timed from its send instead, each delayed request would look
		// like an ordinary 100 µs round trip and the stall would vanish.
		if i > 3 && s.Done-s.Send != 100*us {
			t.Errorf("request %d: round trip %v, want 100µs", i, s.Done-s.Send)
		}
	}
}

func TestSelfTimesSumToRoots(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	root := tr.open("root", at(0), -1, -1)
	tr.add("a", at(10), at(30), root, -1)
	b := tr.add("b", at(40), at(90), root, -1)
	tr.add("c", at(50), at(60), b, 7)
	tr.close(root, at(100))
	tr.add("scrape", at(200), at(205), -1, -1)

	rows, total := tr.selfTimes()
	want := map[string]int64{"root": 30, "a": 20, "b": 40, "c": 10, "scrape": 5}
	var sum int64
	for _, r := range rows {
		sum += r.SelfNS
		if r.SelfNS != want[r.Name] {
			t.Errorf("%s self %d ns, want %d", r.Name, r.SelfNS, want[r.Name])
		}
	}
	if total != 105 || sum != total {
		t.Errorf("rows sum %d, roots %d; want both 105", sum, total)
	}
}

func TestMergeKeepsParents(t *testing.T) {
	tr := newTracer()
	tr.add("x", tr.epoch, tr.epoch, -1, -1)
	sub := tr.sub()
	p := sub.add("lane", tr.epoch, tr.epoch.Add(10), -1, -1)
	sub.add("req", tr.epoch, tr.epoch.Add(5), p, 1)
	tr.merge(sub)
	if got := tr.spans[2].Parent; got != 1 {
		t.Errorf("merged child parent %d, want 1", got)
	}
	var nilTr *tracer
	if nilTr.sub() != nil || nilTr.add("x", time.Now(), time.Now(), -1, -1) != -1 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestReorderKeepsSlotsAndSeeds(t *testing.T) {
	tr := &workload.Trace{Slots: 3}
	for i, slot := range []int{0, 0, 0, 1, 2, 2, 2, 2} {
		tr.Requests = append(tr.Requests, workload.Request{ID: i, App: i, Arrive: slot, Duration: 1, Demand: 1})
	}
	a, err := reorder(tr, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := reorder(tr, rand.New(rand.NewPCG(1, 2)))
	c, _ := reorder(tr, rand.New(rand.NewPCG(9, 2)))
	slotOf := map[int]int{}
	for _, r := range tr.Requests {
		slotOf[r.App] = r.Arrive
	}
	same, differs := true, false
	for i, r := range a.Requests {
		if r.ID != i || slotOf[r.App] != r.Arrive {
			t.Errorf("request %d: ID %d app %d at slot %d", i, r.ID, r.App, r.Arrive)
		}
		same = same && r == b.Requests[i]
		differs = differs || r != c.Requests[i]
	}
	if !same || !differs {
		t.Errorf("same seed same order: %v; other seed other order: %v", same, differs)
	}
	if tr.Requests[1].ID != 1 {
		t.Error("reorder modified its input")
	}
}

// benchmarkFile is the part of BENCHMARK.json the catalogue must match.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: catalogue has %d metrics, BENCHMARK.json %d", kind, len(defs), len(names))
		}
		for i := range min(len(defs), len(names)) {
			if defs[i].Name != names[i] || defs[i].Unit != units[i] {
				t.Errorf("%s %d: catalogue %+v, BENCHMARK.json %s %s", kind, i, defs[i], names[i], units[i])
			}
		}
	}
	var names, units []string
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
}

// TestPrintedMetricsAreDeclared renders both result lines and checks that
// every printed name is declared in BENCHMARK.json and well formed.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	bf := readBenchmarkFile(t)
	declared := map[string]bool{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range bf.PerLayer {
		declared[m.Name] = true
	}
	rep := newReport()
	for _, d := range endToEnd {
		rep.E2E[d.Name] = 1
	}
	rep.op(nil)
	for _, traced := range []bool{false, true} {
		line, err := resultLine(config{Workload: "w", Trace: traced}, rep)
		if err != nil {
			t.Fatal(err)
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted != 1 {
			t.Errorf("result %+v", res)
		}
		for name := range res.Metrics {
			if !declared[name] || !metricName.MatchString(name) {
				t.Errorf("printed metric %q: declared %v, well formed %v", name, declared[name], metricName.MatchString(name))
			}
		}
	}
	delete(rep.E2E, "cost")
	if _, err := resultLine(config{Workload: "w"}, rep); err == nil {
		t.Error("an untraced result without cost must be refused")
	}
}

func TestWindows(t *testing.T) {
	const ms = time.Millisecond
	ts := []time.Duration{0, 100 * ms, 499 * ms, 500 * ms, 700 * ms, 1100 * ms}
	vals := []float64{3, 1, 2, 5, 4, 9}
	got := byWindow(ts, vals, 500*ms, 2)
	if len(got) != 2 || len(got[0]) != 3 || got[0][0] != 1 || got[0][2] != 3 || len(got[1]) != 2 || got[1][0] != 4 {
		t.Errorf("byWindow = %v, want [[1 2 3] [4 5]] (the one-sample window dropped)", got)
	}
	rates := windowRates(ts, 1200*ms, 500*ms)
	if len(rates) != 2 || rates[0] != 6 || rates[1] != 4 {
		t.Errorf("windowRates = %v, want [6 4]: two full windows, the partial one dropped", rates)
	}
}
