// Command perfbench is colord's benchmark. It starts colord in-process with
// the daemon's defaults, drives it over loopback HTTP from closed-loop
// clients for a timed window, verifies a deterministic sample of the
// responses off the clock, and prints one JSON result line.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload hit|miss|churn|gateway --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same window runs with a span per request, and a per-layer pass then
// times each layer from outside by calling its public functions; the result
// carries the per-layer metrics and the spans are written under
// --trace-dir. See README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// bench is a workload fixture after set-up: run measures the timed window
// and verifies it; close stops every server and goroutine it started.
type bench interface {
	run(d time.Duration, tr *tracer, rep *report) error
	close()
}

// report is everything one run measured.
type report struct {
	workload          string
	setups            []time.Duration
	attempted, failed int64
	ok, verified      int64
	elapsed           time.Duration
	lat               windowStats
	delta             latencies
	rssMB             float64 // peak RSS when the window ended
	mutations         int64
	rollovers         int
	overflows         int
	colorsUsed        float64
	statz             statzDelta
	errs              []string
}

// fail counts a failed operation and keeps the first few reasons.
func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit ...string) {
	u := "ratio"
	if len(unit) > 0 {
		u = unit[0]
	}
	m[name] = metric{Value: v, Unit: u}
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "hit, miss, churn or gateway")
		seed     = fs.Int64("seed", 1, "workload seed: every input is derived from it")
		seconds  = fs.Int("seconds", 10, "length of the timed window")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		tmp      = fs.String("tmp", ".bench_build/tmp", "directory for temporary files (WAL dirs)")
		traceDir = fs.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	rep, err := measure(*workload, *seed, time.Duration(*seconds)*time.Second, *tmp, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	m := endToEnd(rep)
	printReport(rep, m)
	out := m
	if tr != nil {
		out = metrics{}
		rep.statz.layerRatios(out)
		if err := layers(*seed, *tmp, tr, out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: per-layer pass:", err)
			return 1
		}
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("# %d spans written to %s\n", len(tr.spans), path)
		printLayers(out)
	}
	for _, e := range rep.errs {
		fmt.Printf("# failure: %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// setups is how many times a run sets its workload up; setup_s is their
// median, which one slow set-up does not move.
const setups = 5

// measure sets the workload up several times, keeps the last fixture for
// the timed window, and returns the run's report.
func measure(workload string, seed int64, d time.Duration, tmp string, tr *tracer) (*report, error) {
	var setup func() (bench, error)
	switch workload {
	case "hit":
		setup = hitSetup(seed, false)
	case "gateway":
		setup = hitSetup(seed, true)
	case "miss":
		setup = missSetup(seed)
	case "churn":
		var err error
		if setup, err = churnSetup(seed, tmp); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want hit, miss, churn or gateway)", workload)
	}
	rep := &report{workload: workload}
	var b bench
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		nb, err := setup()
		rep.setups = append(rep.setups, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if k < setups-1 {
			nb.close()
		} else {
			b = nb
		}
	}
	defer b.close()
	if err := b.run(d, tr, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// endToEnd is the run's gated end-to-end metrics, the ones BENCHMARK.json
// bounds. The report prints the others (p99_ms, error_rate and churn's feed
// figures) beside them.
func endToEnd(r *report) metrics {
	m := metrics{}
	m.set("setup_s", median(r.setups).Seconds(), "s")
	m.set("req_per_s", r.lat.rate, "1/s")
	m.set("p50_ms", ms(r.lat.p50), "ms")
	m.set("colors_used", r.colorsUsed, "count")
	m.set("peak_rss_mb", r.rssMB, "MB")
	return m
}

// printReport writes the human-readable report: every end-to-end metric by
// name and unit, with sample counts and the bases of every ratio.
func printReport(r *report, m metrics) {
	p := func(name string, v float64, unit, note string) {
		fmt.Printf("# %-14s %14.4f %-6s %s\n", name, v, unit, note)
	}
	fmt.Printf("# workload %s: %d attempted, %d failed, %d verified off the clock, window %.3fs\n",
		r.workload, r.attempted, r.failed, r.verified, r.elapsed.Seconds())
	p("setup_s", m["setup_s"].Value, "s", fmt.Sprintf("median of %d set-ups", len(r.setups)))
	p("req_per_s", m["req_per_s"].Value, "1/s", fmt.Sprintf("median of %d sub-windows; %d successful requests, %.1f/s over the window",
		subWindows, r.ok, float64(r.ok)/r.elapsed.Seconds()))
	p("p50_ms", m["p50_ms"].Value, "ms", fmt.Sprintf("median of %d sub-window medians; n=%d", subWindows, r.lat.n))
	p("p99_ms", ms(r.lat.p99), "ms", fmt.Sprintf("n=%d, %d samples beyond", r.lat.n, r.lat.beyond99))
	p("error_rate", ratio(r.failed, r.attempted), "ratio", fmt.Sprintf("%d of %d", r.failed, r.attempted))
	if r.workload == "churn" {
		p("mut_per_s", float64(r.mutations)/r.elapsed.Seconds(), "1/s",
			fmt.Sprintf("%d mutations, %d stream rollovers", r.mutations, r.rollovers))
		p("delta_p50_ms", ms(r.delta.p50), "ms", fmt.Sprintf("n=%d", r.delta.n))
		p("delta_p99_ms", ms(r.delta.p99), "ms",
			fmt.Sprintf("n=%d, %d samples beyond, %d overflows", r.delta.n, r.delta.beyond99, r.overflows))
	}
	p("colors_used", m["colors_used"].Value, "count", "mean over the fixed verified set")
	p("peak_rss_mb", m["peak_rss_mb"].Value, "MB", "client and in-process servers, at the end of the window")
	s := r.statz
	fmt.Printf("# statz: requests=%d hits=%d coalesced=%d misses=%d runs=%d batches=%d mutations=%d delivered=%d dropped=%d\n",
		s.requests, s.hits, s.coalesced, s.misses(), s.runs, s.batches, s.mutations, s.delivered, s.dropped)
}

func printLayers(m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("# %-36s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
