// Sharded multi-core ingest: the paper's OVS scaling architecture
// (§6.1 — one sketch per dataplane thread, merged at decode). A capture
// is split across N simulated receive queues by RSS; one goroutine per
// queue reads its records, extracts each 5-tuple in place and
// batch-inserts into a private CocoSketch; decode merges the shards.
// This is the path cocoagent runs each epoch.
//
// Run: go run ./examples/sharded
package main

import (
	"bytes"
	"fmt"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/pcap"
	"cocosketch/internal/query"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

func main() {
	tr := trace.CAIDALike(1_000_000, 5)
	var capture bytes.Buffer
	if err := tr.WritePCAP(&capture, 64); err != nil {
		panic(err)
	}
	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500<<10, 9)

	// Throughput sweep: Mpps vs queue count (needs physical cores to
	// actually climb; the correctness properties hold regardless). The
	// RSS split is setup, as on a NIC; only replay and merge are timed.
	fmt.Printf("%-8s  %-10s  %-10s\n", "queues", "Mpps", "mass-ok")
	var merged *core.Basic[flowkey.FiveTuple]
	for _, queues := range []int{1, 2, 4} {
		qs, err := pcap.PartitionRSS(bytes.NewReader(capture.Bytes()), queues, 5)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		s, st, err := shard.ReplayQueues(shard.ReplayConfig{}, shard.NewBasicFactory(sketchCfg, nil), qs)
		if err != nil {
			panic(err)
		}
		mpps := float64(st.Packets) / time.Since(start).Seconds() / 1e6
		fmt.Printf("%-8d  %-10.2f  %-10v\n",
			queues, mpps, s.SumValues() == uint64(len(tr.Packets)))
		merged = s
	}

	engine := query.NewEngine(merged.Decode())
	m := flowkey.MaskFields(flowkey.FieldSrcIP)
	fmt.Println("\ntop sources measured by the 4-queue replay:")
	fmt.Print(query.FormatRows(m, engine.Top(m, 5), 5))
}
