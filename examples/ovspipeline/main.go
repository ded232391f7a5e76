// OVS-style pipeline: the paper's software-switch deployment (§6/§B).
// A datapath thread parses raw Ethernet frames, hash-partitions them
// across lock-free rings, and per-thread measurement goroutines update
// CocoSketch shards — the architecture that saturated a 40G NIC with
// two threads in the paper.
//
// Run: go run ./examples/ovspipeline
package main

import (
	"fmt"
	"time"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/ovs"
	"cocosketch/internal/packet"
	"cocosketch/internal/query"
	"cocosketch/internal/trace"
)

func main() {
	// Build the workload as raw frames, as a NIC would deliver them.
	tr := trace.CAIDALike(300_000, 5)
	frames := make([][]byte, len(tr.Packets))
	for i := range tr.Packets {
		frames[i] = packet.Build(tr.Packets[i].Key, packet.BuildOptions{})
	}

	// The datapath's parser: frames back to keys (zero-alloc extractor).
	parsed := &trace.Trace{Name: "frames", Packets: make([]trace.Packet, 0, len(frames))}
	for _, f := range frames {
		key, ok := packet.ExtractFiveTuple(f)
		if !ok {
			continue // non-IP traffic is not measured
		}
		parsed.Packets = append(parsed.Packets, trace.Packet{Key: key, Size: uint32(len(f))})
	}
	fmt.Printf("parsed %d frames\n\n", len(parsed.Packets))

	// Sweep thread counts like Figure 15(a). One pass lasts a few
	// milliseconds, so each cell repeats until a second of timed runs
	// has accumulated and prints the median Mpps [min–max].
	fmt.Printf("%-8s  %-22s  %-22s\n", "threads", "Mpps(w/o Ours)", "Mpps(w/ Ours)")
	for _, threads := range []int{1, 2, 4} {
		base, _ := ovs.RunRepeated(parsed, ovs.Config{Threads: threads}, 3, time.Second)
		with, decoded := ovs.RunRepeated(parsed, ovs.Config{
			Threads: threads, WithSketch: true, MemoryBytes: 500 * 1024, Seed: 9,
		}, 3, time.Second)
		fmt.Printf("%-8d  %-22s  %-22s\n", threads, base, with)

		if threads == 4 {
			engine := query.NewEngine(decoded)
			m := flowkey.MaskFields(flowkey.FieldSrcIP)
			fmt.Println("\ntop sources measured by the 4-thread pipeline:")
			fmt.Print(query.FormatRows(m, engine.Top(m, 5), 5))
		}
	}
}
