// Command perfbench is HERE's benchmark of record. One run measures
// one workload for a fixed wall-clock time, checks the program's
// outputs, prints every metric by name with its unit and sample
// count, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Workloads:
//
//   - replicate-dense: raw-codec checkpoints of a 128 MiB Xen-flavour
//     guest to a KVM-flavour replica over loopback TCP; every epoch
//     rewrites 2048 pages with incompressible bytes.
//   - replicate-sparse: the same path with the content-aware codec;
//     every epoch patches 32 bytes in 8192 pages and zeroes 1 in 8.
//   - fleet-api: a journaled 8-group fleet of 1000 idle protections
//     served over loopback HTTP, with closed-loop reads, open-loop
//     writes and benchmark-driven group rounds.
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1
// the per-layer metrics from spans the benchmark records around each
// layer call. Every number is host wall time; virtual-clock outputs of
// the cost model are printed under a separate "modeled" heading and
// never mixed into them.
//
// Build and run from the repository root with
//
//	bash perfbench/run.sh --workload fleet-api --seed 1 --seconds 20 --trace 0
//
// and every workload in turn with --workload all.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// scale sizes a run; tests shrink it.
type scale struct {
	memBytes    uint64 // replicate-*: guest memory
	densePages  int    // replicate-dense: pages rewritten per epoch
	sparsePages int    // replicate-sparse: pages patched per epoch
	protections int    // fleet-api: idle protections
	repSetups   int    // replicate-*: set-ups (each seeded) per run; setup_s and seed_s are medians
	fleetSetups int    // fleet-api: set-ups per run; setup_s is their median
	epochs      int    // replicate-*: fixed epoch count (0 = run for the time given)
}

var fullScale = scale{
	memBytes:    128 << 20,
	densePages:  2048,
	sparsePages: 8192,
	protections: 1000,
	repSetups:   9,
	fleetSetups: 5,
}

type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	out      string // directory for the journal, spans and run record
	scale    scale
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run produced.
type report struct {
	endToEnd  map[string]metric // gated metrics, the -trace 0 JSON
	perLayer  map[string]metric // per-layer metrics, the -trace 1 JSON
	lines     []string          // human-readable report
	attempted int64
	failed    int64
	failures  []string // correctness checks that failed
	spans     []span
}

func newReport() *report {
	return &report{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// named prints one metric with its unit and a note (sample count,
// percentile, definition).
func (r *report) named(name string, v float64, unit, note string) {
	r.printf("  %-34s %14.4f %-6s %s", name, v, unit, note)
}

// gate records an end-to-end metric of BENCHMARK.json.
func (r *report) gate(name string, v float64, unit string) {
	r.endToEnd[name] = metric{Value: v, Unit: unit}
}

// layer records and prints a per-layer metric. Only the metrics named
// in layerJSON go into the -trace 1 JSON: every workload must emit
// each of those, and most layers are exercised by one workload family
// only.
func (r *report) layer(name string, v float64, unit, note string) {
	r.named(name, v, unit, note)
	if layerJSON[name] {
		r.perLayer[name] = metric{Value: v, Unit: unit}
	}
}

var layerJSON = map[string]bool{
	"go.gc_cycles":       true,
	"go.gc_pause_ms":     true,
	"go.alloc_mbps":      true,
	"trace.overhead_pct": true,
}

// check records a failed correctness check when err is non-nil.
func (r *report) check(what string, err error) {
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// gcLayers reports what the Go runtime did over the measured window.
func (r *report) gcLayers(d gcDelta) {
	r.layer("go.gc_cycles", float64(d.cycles), "count", "GC cycles in the measured window")
	r.layer("go.gc_pause_ms", ms(d.pause), "ms", "total stop-the-world pause in the window")
	r.layer("go.alloc_mbps", d.allocMB/d.elapsed.Seconds(), "MB/s", "heap allocation rate in the window")
}

var workloads = map[string]func(options, *report) error{
	"replicate-dense":  func(o options, r *report) error { return runReplicate(o, false, r) },
	"replicate-sparse": func(o options, r *report) error { return runReplicate(o, true, r) },
	"fleet-api":        runFleetAPI,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: all, "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 15, "measured wall time per run")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = fs.String("out", ".bench_build/perfbench", "directory for the journal, spans and run record")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	} else if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q (want all or one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	// With -workload all, every workload runs in turn and the run
	// fails if any of them does.
	var errs []error
	for _, n := range names {
		o := options{
			workload: n,
			seed:     *seed,
			duration: time.Duration(*seconds * float64(time.Second)),
			trace:    *trace == 1,
			out:      *out,
			scale:    fullScale,
		}
		rep := newReport()
		err := workloads[n](o, rep)
		if err == nil {
			err = emit(o, rep, stdout)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", n, err))
		}
	}
	return errors.Join(errs...)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the report and the closing JSON line, writes the run
// record (and spans of a traced run) under o.out, and fails when any
// correctness check failed.
func emit(o options, rep *report, stdout io.Writer) error {
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.duration.Seconds(), o.trace)
	for _, l := range provenance() {
		fmt.Fprintln(stdout, "  "+l)
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stdout, "CHECK FAILED:", f)
	}
	ms := rep.endToEnd
	if o.trace {
		ms = rep.perLayer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.failures) == 0, rep.attempted, rep.failed, ms}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	base := fmt.Sprintf("%s/%s-seed%d-trace%d", o.out, o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	if err := os.WriteFile(base+".txt", []byte(strings.Join(rep.lines, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	if o.trace {
		if err := writeSpans(base+".spans.jsonl", rep.spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  spans: %d written to %s.spans.jsonl\n", len(rep.spans), base)
	}
	fmt.Fprintln(stdout, string(line))
	if len(rep.failures) > 0 {
		return fmt.Errorf("%d correctness check(s) failed", len(rep.failures))
	}
	return nil
}
