// Command perfbench is the repository's end-to-end benchmark. It drives
// the library through its public API over real loopback TCP and HTTP —
// pcap bytes → shard.ReplayQueues → netwide.Agent.Report →
// netwide.Collector → Collector.SealEpochInto → window.Ring →
// window.Handler /query — checks the answers, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload ingest-min64 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON metrics are the end-to-end set, measured
// untraced. With --trace 1 the run measures untraced and then traced,
// and the JSON metrics are the per-layer set derived from spans the
// benchmark records around each call into a layer; the spans are
// written to .bench_build/spans/ at exit. ledger.json describes the
// workloads and metrics and maps each per-layer metric to the
// end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// endToEnd lists the metrics a --trace 0 run reports in its JSON line,
// with their units. Every workload measures every one of them.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"visible_ms_p50", "ms"},
	{"query_ms_p50", "ms"},
	{"peak_heap_mb", "MiB"},
	{"hh_f1", "1"},
}

// perLayer lists the metrics a --trace 1 run reports in its JSON line.
// A layer a workload bypasses reports 0.
var perLayer = []metricName{
	{"pcap.read_ns_per_pkt", "ns"},
	{"packet.extract_ns_per_pkt", "ns"},
	{"packet.skipped_ratio", "1"},
	{"flowkey.hash_ns_per_pkt", "ns"},
	{"core.insert_ns_per_pkt", "ns"},
	{"core.allocs_per_pkt", "count"},
	{"core.merge_ns", "ns"},
	{"core.decode_ns", "ns"},
	{"shard.replay_ns_per_pkt", "ns"},
	{"shard.handoff_ns_per_pkt", "ns"},
	{"shard.isolated_share", "1"},
	{"shard.cpu_per_wall", "1"},
	{"shard.starved", "count"},
	{"report.seal_ns", "ns"},
	{"report.encode_ns", "ns"},
	{"report.decode_ns", "ns"},
	{"report.compression_ratio", "1"},
	{"netwide.report_ns", "ns"},
	{"netwide.ack_wait_ns", "ns"},
	{"netwide.seal_epoch_ns", "ns"},
	{"netwide.fold_ns", "ns"},
	{"netwide.dup_reports", "count"},
	{"netwide.decode_failures", "count"},
	{"window.seal_ns", "ns"},
	{"window.merge_ns", "ns"},
	{"window.cache_hit_ratio", "1"},
	{"query.top_ns", "ns"},
	{"query.sql_parse_ns", "ns"},
	{"http.handler_ns", "ns"},
	{"http.overhead_ns", "ns"},
	{"loadgen.lag_ms_p99", "ms"},
	{"trace.overhead_ratio", "1"},
}

type metricName struct{ name, unit string }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*Run) error{
	"ingest-min64":    runIngest,
	"query-dashboard": runDashboard,
	"report-fanin":    runFanin,
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Options are the command-line settings of one run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Scale multiplies input sizes; the smoke test runs at a tiny
	// scale.
	Scale float64
	// Corrupt feeds one deliberately wrong answer to every correctness
	// check (the negative control): the run must fail.
	Corrupt bool
	// SpansDir is where a traced run writes its spans.
	SpansDir string
}

// Run is the state one workload run reports into.
type Run struct {
	Opt Options

	mu        sync.Mutex
	metrics   map[string]Metric
	notes     []string
	attempted int64
	failed    int64
	checks    int64
	badChecks int64
	failures  []string
}

// Set records a metric.
func (r *Run) Set(name string, v float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

// Note records a line of context printed with the metrics.
func (r *Run) Note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// Op counts one attempted operation (request, report exchange) and
// whether it failed.
func (r *Run) Op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// Check counts one correctness check; a false ok is a failed operation.
func (r *Run) Check(ok bool, format string, args ...any) {
	r.mu.Lock()
	r.checks++
	if !ok {
		r.badChecks++
	}
	r.mu.Unlock()
	if ok {
		r.Op(nil)
	} else {
		r.Op(fmt.Errorf("check failed: "+format, args...))
	}
}

// Deadline returns the end of a measured phase of the given share of
// --seconds starting now.
func (r *Run) Deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(r.Opt.Seconds * share * float64(time.Second)))
}

// Scaled returns n × --scale, at least floor.
func (r *Run) Scaled(n, floor int) int {
	return max(int(float64(n)*r.Opt.Scale), floor)
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain parses args, runs the workload and prints the report. It
// returns the process exit code: 0 only when every operation and
// correctness check passed.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o Options
	var traceFlag int
	fs.StringVar(&o.Workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.Seed, "seed", 1, "input generation seed")
	fs.Float64Var(&o.Seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.Float64Var(&o.Scale, "scale", 1, "input size multiplier")
	fs.BoolVar(&o.Corrupt, "corrupt", false, "negative control: corrupt one answer per correctness check")
	fs.StringVar(&o.SpansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[o.Workload]
	if !ok || o.Seconds <= 0 || o.Scale <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --scale > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.Trace = traceFlag == 1

	r := &Run{Opt: o, metrics: make(map[string]Metric)}
	if err := drive(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.Workload, err)
		return 1
	}
	return r.report(stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints every metric and the JSON result line.
func (r *Run) report(stdout, stderr io.Writer) int {
	gated := endToEnd
	if r.Opt.Trace {
		gated = perLayer
		for _, m := range perLayer {
			if _, ok := r.metrics[m.name]; !ok {
				r.metrics[m.name] = Metric{Value: 0, Unit: m.unit}
				r.notes = append(r.notes, m.name+": layer not exercised by this workload, reported as 0")
			}
		}
	}
	if r.attempted > 0 {
		r.metrics["fail_ratio"] = Metric{Value: float64(r.failed) / float64(r.attempted), Unit: "1"}
	}

	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %v\n", r.Opt.Workload, r.Opt.Seed, r.Opt.Seconds, r.Opt.Trace)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "perfbench: %s\n", f)
	}

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{
		Correct:   r.badChecks == 0 && r.checks > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]Metric, len(gated)),
	}
	var missing []string
	for _, g := range gated {
		m, ok := r.metrics[g.name]
		switch {
		case !ok:
			missing = append(missing, g.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			missing = append(missing, g.name+" (not finite)")
		}
		out.Metrics[g.name] = Metric{Value: m.Value, Unit: g.unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "perfbench: metrics not measured: %s\n", strings.Join(missing, ", "))
		return 1
	}
	if out.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operation attempted")
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}
