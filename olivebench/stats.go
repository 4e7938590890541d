package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to count as measured rather than as one outlier.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first; tailQuantile walks down it from a workload's cap.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// rank is the 1-based nearest-rank position of quantile p in n sorted
// samples: the smallest r with r/n ≥ p. The tolerance keeps products
// such as 0.99·100 from rounding up to the next rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// nearestRank returns quantile p of ascending xs by the nearest-rank
// rule; 0 when xs is empty.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond counts the samples strictly ranked above quantile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tail is a reported tail percentile with the evidence behind it.
type tail struct {
	P      float64 // the percentile reported, e.g. 0.99
	Value  float64
	N      int // samples in total
	Beyond int // samples ranked above P
}

// tailQuantile reports the highest ladder percentile not above maxP that
// has at least minBeyond samples beyond it. ok is false when even the
// median lacks them.
func tailQuantile(sorted []float64, maxP float64) (tail, bool) {
	n := len(sorted)
	for _, p := range tailLadder {
		if p > maxP+1e-12 {
			continue
		}
		if b := beyond(n, p); b >= minBeyond {
			return tail{P: p, Value: nearestRank(sorted, p), N: n, Beyond: b}, true
		}
	}
	return tail{N: n}, false
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is nearestRank(·, 0.5) of an unsorted sample.
func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// byWindow groups vals by the window of the given width their time falls
// in and returns, sorted, the groups holding at least minN values: a
// phase's last, partial window is dropped.
func byWindow(ts []time.Duration, vals []float64, width time.Duration, minN float64) [][]float64 {
	groups := map[int64][]float64{}
	for i, t := range ts {
		k := int64(t / width)
		groups[k] = append(groups[k], vals[i])
	}
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out [][]float64
	for _, k := range keys {
		if g := groups[k]; float64(len(g)) >= minN {
			sort.Float64s(g)
			out = append(out, g)
		}
	}
	return out
}

// windowRates counts the events at times ts per full window of the given
// width within wall and returns each window's rate per second.
func windowRates(ts []time.Duration, wall, width time.Duration) []float64 {
	counts := make([]int, int(wall/width))
	for _, t := range ts {
		if k := int(t / width); k < len(counts) {
			counts[k]++
		}
	}
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / width.Seconds()
	}
	return rates
}
