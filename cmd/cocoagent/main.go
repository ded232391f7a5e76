// Command cocoagent runs one network-wide measurement vantage point:
// it measures traffic (a pcap file or a synthetic trace) into a
// CocoSketch and reports the sketch to a cococollector at the end of
// each epoch.
//
// Each epoch replays the capture through shard.ReplayPCAPBasic: the
// -pcap file is streamed from disk, and synthetic mode encodes its
// per-epoch trace as pcap bytes first, so both take the same path.
// -workers sets the number of simulated receive queues: the stream is
// split by RSS, one goroutine per queue extracts keys and inserts them
// into a private sketch, and the merged sketch is absorbed into the
// agent's epoch sketch before it is reported. Sketch memory is per
// queue (merge compatibility requires all shards to share one
// geometry).
//
// With -telemetry the agent serves its runtime counters as expvar-style
// JSON on /debug/vars and mounts net/http/pprof under /debug/pprof/.
//
// With -spool N the agent runs hardened: each epoch is sealed into a
// bounded coalescing spool and delivery failures are survived — the
// agent keeps measuring through collector outages and flushes the
// backlog when connectivity returns (exit 1 only if epochs remain
// undelivered at the end). -write-timeout bounds each report exchange.
//
// All agents and the collector must agree on -mem, -d, -seed and
// -report-codec (the compressed codec rounds the memory-derived bucket
// count down to a multiple of report.GeometryAlign on both ends so any
// power-of-two -report-shrink divides the shared geometry).
//
// -collector may equally point at a cococollector running in -cluster
// mode: the dispatcher speaks the same report protocol and shards each
// (agent, epoch) report across its backend collectors transparently
// (DESIGN.md §15), so the agent needs no extra configuration. Use the
// full codec with a dispatcher — compressed delta reports assume one
// collector tracks the delta base, and epoch striping would force a
// base resync on nearly every report.
//
// Usage:
//
//	cocoagent -id 1 -collector 127.0.0.1:7700 -pcap site1.pcap
//	cocoagent -id 2 -collector 127.0.0.1:7700 -packets 500000 -epochs 3
//	cocoagent -id 3 -collector 127.0.0.1:7700 -packets 5000000 -workers 4 -telemetry 127.0.0.1:7701
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/report"
	"cocosketch/internal/shard"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// reportCodec resolves the -report-codec / -report-shrink flags into a
// report codec over the shared sketch configuration.
func reportCodec(name string, shrink int, cfg core.Config) (report.Codec[flowkey.FiveTuple], error) {
	switch name {
	case "full":
		return report.Full[flowkey.FiveTuple](flowkey.FiveTupleFromBytes), nil
	case "compressed":
		return report.Compressed[flowkey.FiveTuple](cfg, shrink, flowkey.FiveTupleFromBytes)
	default:
		return nil, fmt.Errorf("unknown -report-codec %q (want full or compressed)", name)
	}
}

// run is the testable entry point: it parses args, measures the
// configured epochs and reports them, writing progress to stdout and
// failures to stderr. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cocoagent", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id        = fs.Uint("id", 0, "agent id (unique per vantage point)")
		collector = fs.String("collector", "127.0.0.1:7700", "collector address")
		pcapPath  = fs.String("pcap", "", "pcap file to measure (default: synthetic)")
		packets   = fs.Int("packets", 500_000, "synthetic packets per epoch when -pcap is unset")
		epochs    = fs.Int("epochs", 1, "number of epochs to report")
		memKB     = fs.Int("mem", 500, "shared sketch memory in KB")
		d         = fs.Int("d", core.DefaultArrays, "shared number of arrays")
		seed      = fs.Uint64("seed", 1, "shared sketch seed")
		workers   = fs.Int("workers", 1, "simulated receive queues per epoch, each replayed into its own sketch")
		telAddr   = fs.String("telemetry", "", "serve /debug/vars and /debug/pprof on this address (off when empty)")
		redials   = fs.Int("redials", 2, "redial attempts per epoch report")
		spool     = fs.Int("spool", 0, "bound undelivered epochs in a coalescing spool and keep measuring through collector outages (0 = fail fast on report error)")
		writeTO   = fs.Duration("write-timeout", 0, "deadline per report exchange, so a stalled collector cannot block the agent (0 = none)")
		codecName = fs.String("report-codec", "full", "epoch report codec: full (complete snapshots, compatible default) or compressed (two-stage delta reports, DESIGN.md §14; the collector must run -report-codec=compressed too)")
		shrink    = fs.Int("report-shrink", 8, "small-stage shrink factor for -report-codec=compressed: ship 1/N of the buckets per array (power of two dividing the geometry)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id > math.MaxUint16 {
		// Ids travel as uint16; a wider one would alias another agent
		// and the collector would take its reports as duplicates.
		fmt.Fprintf(stderr, "cocoagent: -id %d out of range (0-%d)\n", *id, math.MaxUint16)
		return 2
	}

	reg := telemetry.Disabled
	if *telAddr != "" {
		reg = telemetry.New()
		addr, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			fmt.Fprintf(stderr, "cocoagent: telemetry: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "telemetry: listening on %s\n", addr)
	}

	cfg := core.ConfigForMemory[flowkey.FiveTuple](*d, *memKB*1024, *seed)
	if *codecName == "compressed" {
		// Memory-derived bucket counts rarely divide by the shrink
		// factor; both ends round identically so geometries agree.
		cfg = report.AlignConfig(cfg)
	}
	agent := netwide.NewAgent(uint16(*id), cfg).SetTelemetry(reg).SetWriteTimeout(*writeTO)
	if *spool > 0 {
		agent.SetSpool(*spool, netwide.SpoolCoalesce)
	}
	codec, err := reportCodec(*codecName, *shrink, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cocoagent: %v\n", err)
		return 2
	}
	agent.SetCodec(codec)

	dial := func() (net.Conn, error) { return net.Dial("tcp", *collector) }
	conn, err := dial()
	if err != nil {
		fmt.Fprintf(stderr, "cocoagent: %v\n", err)
		return 1
	}
	defer func() { conn.Close() }()

	for e := 0; e < *epochs; e++ {
		var capture io.Reader
		var file *os.File
		if *pcapPath != "" {
			if file, err = os.Open(*pcapPath); err != nil {
				fmt.Fprintf(stderr, "cocoagent: %v\n", err)
				return 1
			}
			capture = file
		} else {
			// The extractor reads only the headers, which fit in 64
			// bytes of every synthetic frame.
			var buf bytes.Buffer
			tr := trace.CAIDALike(*packets, *seed+uint64(*id)*1000+uint64(e))
			if err := tr.WritePCAP(&buf, 64); err != nil {
				fmt.Fprintf(stderr, "cocoagent: %v\n", err)
				return 1
			}
			capture = &buf
		}
		merged, st, err := shard.ReplayPCAPBasic(shard.ReplayConfig{Queues: *workers, Seed: *seed, Telemetry: reg}, cfg, capture)
		if file != nil {
			file.Close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "cocoagent: ingest: %v\n", err)
			return 1
		}
		if err := agent.Absorb(merged); err != nil {
			fmt.Fprintf(stderr, "cocoagent: absorb: %v\n", err)
			return 1
		}
		if *spool > 0 {
			// Hardened mode: seal the epoch (never blocks ingest) and
			// try to deliver the spool; an unreachable collector is a
			// warning, not an exit — the epochs ride along and flush
			// once connectivity returns.
			agent.EndEpoch()
			if conn, err = agent.FlushWithRedial(conn, dial, *redials); err != nil {
				fmt.Fprintf(stderr, "cocoagent: epoch %d spooled, delivery pending: %v\n", e, err)
				continue
			}
		} else if conn, err = agent.ReportWithRedial(conn, dial, *redials); err != nil {
			fmt.Fprintf(stderr, "cocoagent: report: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "agent %d: epoch %d reported (%d packets)\n", *id, e, st.Packets)
	}
	if agent.PendingEpochs() > 0 {
		if conn, err = agent.FlushWithRedial(conn, dial, *redials); err != nil || agent.PendingEpochs() > 0 {
			fmt.Fprintf(stderr, "cocoagent: %d epochs undelivered (%d units of weight)\n",
				agent.PendingEpochs(), agent.PendingWeight())
			return 1
		}
	}
	return 0
}
