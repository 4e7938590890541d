package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the tracer's
// epoch; Parent is the index of the enclosing span, -1 for a root. Spans
// of one request share Req (-1 when the span serves no single request).
type span struct {
	Name       string
	Start, End int64
	Parent     int32
	Req        int64
}

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced path pays one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sub returns an empty tracer on the same epoch, for one goroutine to
// fill and merge back; nil when t is nil.
func (t *tracer) sub() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{epoch: t.epoch}
}

// merge appends o's spans, keeping their parent links.
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	off := int32(len(t.spans))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  int64(start.Sub(t.epoch)),
		End:    int64(end.Sub(t.epoch)),
		Parent: int32(parent),
		Req:    req,
	})
	return len(t.spans) - 1
}

// reserve makes room for n more spans, so recording them does not grow
// the slice mid-measurement.
func (t *tracer) reserve(n int) {
	if t != nil {
		t.spans = slices.Grow(t.spans, n)
	}
}

// open records a root or parent span whose end is not known yet; close
// sets it.
func (t *tracer) open(name string, start time.Time, parent int, req int64) int {
	return t.add(name, start, start, parent, req)
}

func (t *tracer) close(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(end.Sub(t.epoch))
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name   string
	SelfNS int64
	Share  float64 // of the summed root-span time
}

// selfTimes attributes every root span's duration to the layers inside
// it: a span's self time is its duration minus its children's. Children
// of one parent never overlap (each lane is sequential), so the rows sum
// exactly to the roots' total, which selfTimes also returns.
func (t *tracer) selfTimes() ([]layerRow, int64) {
	self := make([]int64, len(t.spans))
	var total int64
	for i, s := range t.spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		} else {
			total += d
		}
	}
	byName := map[string]int64{}
	for i, s := range t.spans {
		byName[s.Name] += self[i]
	}
	rows := make([]layerRow, 0, len(byName))
	for name, ns := range byName {
		rows = append(rows, layerRow{Name: name, SelfNS: ns, Share: ratio(float64(ns), float64(total))})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfNS > rows[j].SelfNS })
	return rows, total
}

// printTable writes the self-time table: one row per layer, then the sum
// of the rows against the workload's wall time.
func printTable(w io.Writer, rows []layerRow, total int64, wall time.Duration) {
	fmt.Fprintf(w, "%-24s %12s %8s\n", "layer (self time)", "ms", "share")
	var sum int64
	for _, r := range rows {
		sum += r.SelfNS
		fmt.Fprintf(w, "%-24s %12.3f %7.2f%%\n", r.Name, float64(r.SelfNS)/1e6, 100*r.Share)
	}
	fmt.Fprintf(w, "%-24s %12.3f %7.2f%%  (roots %.3f ms, workload wall %.3f ms)\n",
		"sum", float64(sum)/1e6, 100*ratio(float64(sum), float64(total)),
		float64(total)/1e6, ms(wall))
}

// write stores the spans as gzipped tab-separated lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "index\tname\tstart_ns\tend_ns\tparent\treq")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.Name, s.Start, s.End, s.Parent, s.Req)
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// finishTrace reports the traced run: the self-time table on stderr, the
// spans on disk, how far the rows sum from the traced work's wall time
// (wall, in seconds), and the tracing overhead — the median traced unit
// against the median untraced one.
func finishTrace(cfg config, rep *report, tr *tracer, wall float64, traced, untraced []float64) error {
	rows, total := tr.selfTimes()
	fmt.Fprintf(os.Stderr, "%s self time over %d traced units:\n", cfg.Workload, len(traced))
	printTable(os.Stderr, rows, total, time.Duration(wall*1e9))
	var sum int64
	for _, r := range rows {
		sum += r.SelfNS
	}
	rep.Layer["trace.rows_sum_ratio"] = ratio(float64(sum)/1e9, wall)
	rep.Layer["trace.overhead_pct"] = 100 * (ratio(median(traced), median(untraced)) - 1)
	path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d", cfg.Workload, cfg.Seed))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(tr.spans), path)
	return nil
}
