// Command cocobench regenerates the tables and figures of the
// CocoSketch paper's evaluation (§7). Each experiment id names one
// artifact (table2, fig8 … fig18b, ext-*); see DESIGN.md for the index.
//
// Usage:
//
//	cocobench -list
//	cocobench -run fig8,fig9 [-packets 2000000] [-seed 1] [-quick] [-bytes] [-format csv]
//	cocobench -run fig14,fig15a -json   (also writes BENCH_cocobench.json)
//	cocobench -run ext-scaling -workers 4 -json   (multi-queue replay Mpps vs queues)
//	cocobench -run ext-zeroalloc -json   (zero-allocation replay vs legacy decode)
//	cocobench -run all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cocosketch/internal/experiments"
	"cocosketch/internal/telemetry"
)

// benchJSONFile is where -json writes the machine-readable throughput
// records, so the performance trajectory across PRs can be tracked by
// tooling (see README "Performance").
const benchJSONFile = "BENCH_cocobench.json"

// throughputRecord is one Mpps data point extracted from an experiment
// table. Labels carries the remaining columns of the row (algorithm,
// key count, thread count, …) as printed.
type throughputRecord struct {
	Experiment string            `json:"experiment"`
	Mpps       float64           `json:"mpps"`
	Labels     map[string]string `json:"labels,omitempty"`
}

// telemetrySummary is the runtime-counter digest attached to the
// BENCH_cocobench.json document: burst-size quantiles of the replay
// ingest runners (ext-scaling, ext-zeroalloc; zero for experiments that
// never replay a capture).
type telemetrySummary struct {
	BatchSizeP50 uint64 `json:"batch_size_p50"`
	BatchSizeP99 uint64 `json:"batch_size_p99"`
}

// benchJSON is the top-level BENCH_cocobench.json document.
type benchJSON struct {
	Packets   int                `json:"packets"`
	Seed      uint64             `json:"seed"`
	Quick     bool               `json:"quick"`
	Results   []throughputRecord `json:"results"`
	Telemetry *telemetrySummary  `json:"telemetry,omitempty"`
}

// summarizeTelemetry digests a registry snapshot into the JSON fields.
func summarizeTelemetry(snap telemetry.Snapshot) *telemetrySummary {
	h := snap.Histograms["ingest.batch_size"]
	return &telemetrySummary{
		BatchSizeP50: h.Quantile(0.5),
		BatchSizeP99: h.Quantile(0.99),
	}
}

// throughputRecords pulls every row of a table that has an Mpps-like
// column (fig14's "Mpps", fig15b's "Mpps(basic)" …), one record per
// row and Mpps column. The remaining columns become labels; a
// parenthesized column suffix becomes the "series" label.
func throughputRecords(res *experiments.TableResult) []throughputRecord {
	var recs []throughputRecord
	for _, row := range res.Rows {
		labels := make(map[string]string)
		type point struct {
			mpps   float64
			series string
		}
		var points []point
		for i, col := range res.Columns {
			if i >= len(row) {
				break
			}
			if strings.HasPrefix(col, "Mpps") {
				var mpps float64
				if _, err := fmt.Sscanf(row[i], "%g", &mpps); err != nil {
					continue
				}
				series := strings.TrimSuffix(strings.TrimPrefix(col, "Mpps("), ")")
				if col == "Mpps" {
					series = ""
				}
				points = append(points, point{mpps, series})
			} else {
				labels[col] = row[i]
			}
		}
		for _, p := range points {
			rl := make(map[string]string, len(labels)+1)
			for k, v := range labels {
				rl[k] = v
			}
			if p.series != "" {
				rl["series"] = p.series
			}
			recs = append(recs, throughputRecord{Experiment: res.ID, Mpps: p.mpps, Labels: rl})
		}
	}
	return recs
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cocobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs  = fs.String("run", "", "comma-separated experiment ids, or 'all'")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		packets = fs.Int("packets", 2_000_000, "packets per measurement window")
		seed    = fs.Uint64("seed", 1, "random seed for traces and sketches")
		quick   = fs.Bool("quick", false, "reduced sweeps and trace size")
		bytes   = fs.Bool("bytes", false, "measure byte counts instead of packet counts (fig8/fig9)")
		workers = fs.Int("workers", 0, "max receive-queue count of the multi-queue replay sweep (ext-scaling); 0 = min(8, GOMAXPROCS)")
		format  = fs.String("format", "text", "output format: text or csv")
		jsonOut = fs.Bool("json", false, "also write throughput (Mpps) results to "+benchJSONFile)
		telAddr = fs.String("telemetry", "", "serve /debug/vars and /debug/pprof on this address while experiments run (off when empty)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// -json wants the telemetry digest even without a live endpoint.
	reg := telemetry.Disabled
	if *telAddr != "" || *jsonOut {
		reg = telemetry.New()
	}
	if *telAddr != "" {
		addr, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			fmt.Fprintf(stderr, "cocobench: telemetry: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "telemetry: listening on %s\n", addr)
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(stderr, "cocobench: unknown format %q\n", *format)
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *runIDs == "" {
		fmt.Fprintln(stderr, "cocobench: use -run <ids> or -list (e.g. -run fig8)")
		return 2
	}

	ids := experiments.IDs()
	if *runIDs != "all" {
		ids = strings.Split(*runIDs, ",")
	}
	cfg := experiments.RunConfig{
		Packets: *packets, Seed: *seed, Quick: *quick, Bytes: *bytes, Workers: *workers,
		Telemetry: reg,
	}

	failed := false
	var bench benchJSON
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(stderr, "cocobench: unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		start := time.Now()
		res, err := runner(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "cocobench: %s failed: %v\n", id, err)
			failed = true
			continue
		}
		if *format == "csv" {
			fmt.Fprint(stdout, res.CSV())
		} else {
			fmt.Fprintln(stdout, res.String())
			fmt.Fprintf(stdout, "(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
		if *jsonOut {
			bench.Results = append(bench.Results, throughputRecords(res)...)
		}
	}
	if *jsonOut {
		bench.Packets = *packets
		bench.Seed = *seed
		bench.Quick = *quick
		bench.Telemetry = summarizeTelemetry(reg.Snapshot())
		if bench.Results == nil {
			bench.Results = []throughputRecord{}
		}
		data, err := json.MarshalIndent(&bench, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "cocobench: encoding %s: %v\n", benchJSONFile, err)
			return 1
		}
		if err := os.WriteFile(benchJSONFile, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "cocobench: writing %s: %v\n", benchJSONFile, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d throughput records)\n", benchJSONFile, len(bench.Results))
	}
	if failed {
		return 1
	}
	return 0
}
