// Command olivebench is the repository's end-to-end benchmark. It runs one
// workload against the OLIVE pipeline — offline PLAN-VNE planning, the
// online Algorithm 2 engine, or the vnesimd HTTP daemon — for a fixed
// time, checks every output, and prints one JSON result line:
//
//	olivebench --workload plan-r100 --seed 1 --seconds 15 --trace 0
//
// It generates every input from --seed and hands the program under test
// only those inputs; it calls the packages' public functions and times
// them from outside. With --trace 0 it prints the end-to-end metrics;
// with --trace 1 it records spans around the same calls and prints the
// per-layer metrics, a self-time table (stderr) and the spans
// (.bench_build/traces). README.md documents workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric catalogue: every name the benchmark prints, with its unit. The
// tests check it against BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"accept_ratio", "ratio"},
	{"cost", "cost"},
	{"p50_ms", "ms"},
	{"rebuild_p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"rate_per_s", "1/s"},
}

var perLayer = buildPerLayer()

type metricDef struct{ Name, Unit string }

// outcomeClasses are the Algorithm 2 paths a request can take.
var outcomeClasses = [...]string{"planned", "unplanned", "preempting", "rejected"}

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, kind := range []string{"cold", "warm"} {
		defs = append(defs,
			metricDef{"plan.aggregate_ms." + kind, "ms"},
			metricDef{"plan.build_ms." + kind, "ms"},
			metricDef{"lp.pivots." + kind, "count"},
			metricDef{"lp.refactorizations." + kind, "count"},
			metricDef{"lp.pricing_scans." + kind, "count"},
			metricDef{"plan.master_solves." + kind, "count"},
			metricDef{"plan.oracle_calls." + kind, "count"},
			metricDef{"lp.warm_hit_ratio." + kind, "ratio"},
			metricDef{"plan.pool_hit_ratio." + kind, "ratio"},
			metricDef{"plan.rounds." + kind, "count"},
		)
	}
	defs = append(defs, metricDef{"core.startslot_us", "us"})
	for _, c := range outcomeClasses {
		defs = append(defs,
			metricDef{"core.process_us." + c + ".p50", "us"},
			metricDef{"core.process_us." + c + ".p99", "us"},
			metricDef{"core.busy_share." + c, "ratio"},
			metricDef{"core.share." + c, "ratio"},
		)
	}
	defs = append(defs,
		metricDef{"serve.rtt_us.p50", "us"},
		metricDef{"serve.rtt_us.tail", "us"},
		metricDef{"serve.decision_us.p50", "us"},
		metricDef{"serve.decision_us.tail", "us"},
		metricDef{"serve.http_us.p50", "us"},
		metricDef{"serve.http_us.tail", "us"},
		metricDef{"serve.queue_wait_us_mean", "us"},
		metricDef{"serve.solve_us_mean", "us"},
		metricDef{"obs.scrape_ms", "ms"},
		metricDef{"serve.shed", "count"},
		metricDef{"load.late_ms.p50", "ms"},
		metricDef{"load.late_ms.p99", "ms"},
		metricDef{"tail.percentile", "%"},
		metricDef{"tail.samples", "count"},
		metricDef{"tail.beyond", "count"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.rows_sum_ratio", "ratio"},
	)
	return defs
}

// traceDir is where traced runs leave their spans, inside the checkout.
const traceDir = ".bench_build/traces"

// config is one invocation's command line.
type config struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
}

// report is what a workload run hands back: its metrics by name and the
// tally of checked operations.
type report struct {
	E2E   map[string]float64
	Layer map[string]float64
	checks
}

func newReport() *report {
	return &report{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

// checks tallies checked operations. An operation that fails any check
// counts once in Failed; the first few failures are kept for stderr.
type checks struct {
	Attempted, Failed int
	errs              []string
}

// op records one checked operation; err nil means it passed.
func (c *checks) op(err error) { c.ops(1, err) }

// ops records n operations checked together: all pass or all fail.
func (c *checks) ops(n int, err error) {
	c.Attempted += n
	if err != nil {
		c.Failed += n
		if len(c.errs) < 10 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

var workloads = map[string]func(config, *report) error{
	"plan-r100":        runPlan,
	"online-r100-u140": runOnline,
	"serve-iris":       runServe,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("olivebench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.Workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.Seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.Seconds, "seconds", 15, "measurement time per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "olivebench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.Trace = traceFlag == 1

	rep := newReport()
	if err := fn(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "olivebench:", err)
		return 1
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	rep.E2E["ok_ratio"] = ratio(float64(rep.Attempted-rep.Failed), float64(rep.Attempted))
	line, err := resultLine(cfg, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olivebench:", err)
		return 1
	}
	fmt.Println(line)
	if rep.Failed > 0 || rep.Attempted == 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON line. Untraced runs must have set
// every end-to-end metric; a per-layer metric of a layer the workload
// does not exercise reads 0.
func resultLine(cfg config, rep *report) (string, error) {
	defs, vals := endToEnd, rep.E2E
	if cfg.Trace {
		defs, vals = perLayer, rep.Layer
	}
	out := result{
		Correct:   rep.Failed == 0 && rep.Attempted > 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !cfg.Trace {
			return "", fmt.Errorf("workload %s did not measure %s", cfg.Workload, d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// peakRSSMB reads the peak resident set (VmHWM) of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// deadline is the end of a run's measurement window.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.Seconds) * time.Second)
}
