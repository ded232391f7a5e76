package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/pcap"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

func init() {
	register("ext-zeroalloc", runZeroAlloc)
}

// zeroAllocSnapLen keeps the in-memory capture small: headers plus a
// little payload is all the decode path touches, so a short snapshot
// length changes nothing about the measurement while keeping a
// multi-million-packet capture in tens of megabytes.
const zeroAllocSnapLen = 128

// runZeroAlloc compares pcap replay paths into the same sketch
// geometry: the legacy decode-then-ingest path (trace.FromPCAP
// materializes every packet on the heap, then a sequential sketch
// consumes the keys) against the run-to-completion replay, which
// extracts every key from a view into the pcap reader's buffer with no
// per-packet allocation, at one queue and at N simulated receive
// queues (shard.ReplayPCAPBasic, shard.ReplayQueues). Before reporting
// throughput the runner verifies that the 1-queue replay decodes
// bit-identically to the legacy path and that the N-queue replay holds
// the same packets and mass — a speedup that changed the sketch state
// would be meaningless.
func runZeroAlloc(cfg RunConfig) (*TableResult, error) {
	n := cfg.packets()
	tr := trace.CAIDALike(n, cfg.Seed)
	var capture bytes.Buffer
	if err := tr.WritePCAP(&capture, zeroAllocSnapLen); err != nil {
		return nil, err
	}
	data := capture.Bytes()

	queues := cfg.Workers
	if queues <= 0 {
		if queues = runtime.GOMAXPROCS(0); queues > 4 {
			queues = 4
		}
	}
	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500*1024, cfg.Seed+7)

	out := &TableResult{
		ID:      "ext-zeroalloc",
		Title:   "Zero-allocation pcap ingest: legacy decode-then-ingest vs run-to-completion replay",
		Columns: []string{"path", "queues", "Mpps", "speedup"},
		Notes: []string{
			"replay: one goroutine per queue reads each record as a view into the pcap reader's buffer, extracts its key in place and batch-inserts (DESIGN.md §13); zero heap allocations per packet in steady state",
			fmt.Sprintf("host has GOMAXPROCS=%d; the multi-queue row needs physical cores to scale", runtime.GOMAXPROCS(0)),
		},
	}

	// Legacy path: FromPCAP allocates the whole trace, a sequential
	// sketch consumes it. Timed end to end — the allocation cost is the
	// point of comparison.
	start := time.Now()
	legacyTrace, err := trace.FromPCAP(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	legacy := core.NewBasic[flowkey.FiveTuple](sketchCfg)
	keys := make([]flowkey.FiveTuple, len(legacyTrace.Packets))
	ws := make([]uint64, len(legacyTrace.Packets))
	for i := range legacyTrace.Packets {
		keys[i] = legacyTrace.Packets[i].Key
		ws[i] = uint64(legacyTrace.Packets[i].Size)
	}
	if cfg.Bytes {
		legacy.InsertBatch(keys, ws)
	} else {
		legacy.InsertBatchUnit(keys)
	}
	legacySec := time.Since(start).Seconds()
	legacyMpps := float64(len(legacyTrace.Packets)) / legacySec / 1e6
	out.AddRow("legacy decode+ingest", 1, legacyMpps, 1.0)
	wantTable := legacy.Decode()

	// Replay, one queue: same stream, no per-packet heap.
	replayCfg := shard.ReplayConfig{
		Queues: 1, Seed: cfg.Seed, Bytes: cfg.Bytes, Telemetry: cfg.Telemetry,
	}
	start = time.Now()
	replay1, st1, err := shard.ReplayPCAPBasic(replayCfg, sketchCfg, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	replay1Sec := time.Since(start).Seconds()
	if st1.Packets != uint64(len(legacyTrace.Packets)) {
		return nil, fmt.Errorf("ext-zeroalloc: 1-queue replay saw %d packets, legacy decoded %d",
			st1.Packets, len(legacyTrace.Packets))
	}
	if err := diffDecodeTables(replay1.Decode(), wantTable); err != nil {
		return nil, fmt.Errorf("ext-zeroalloc: 1-queue replay decode diverges: %w", err)
	}
	mpps1 := float64(st1.Packets) / replay1Sec / 1e6
	out.AddRow("replay", 1, mpps1, mpps1/legacyMpps)

	// Replay, N queues: partition once (setup, untimed — a real NIC
	// splits in hardware), then replay concurrently. The RSS split and
	// the decode-time merge are lossless, so the merged sketch must
	// hold the 1-queue row's packets and mass.
	if queues > 1 {
		qs, err := pcap.PartitionRSS(bytes.NewReader(data), queues, cfg.Seed)
		if err != nil {
			return nil, err
		}
		replayCfg.Queues = queues
		start = time.Now()
		replayN, stN, err := shard.ReplayQueues(replayCfg, shard.NewBasicFactory(sketchCfg, cfg.Telemetry), qs)
		if err != nil {
			return nil, err
		}
		replayNSec := time.Since(start).Seconds()
		if stN.Packets != st1.Packets {
			return nil, fmt.Errorf("ext-zeroalloc: %d-queue replay saw %d packets, 1-queue saw %d",
				queues, stN.Packets, st1.Packets)
		}
		if got, want := replayN.SumValues(), replay1.SumValues(); got != want {
			return nil, fmt.Errorf("ext-zeroalloc: %d-queue replay merged mass %d, 1-queue %d",
				queues, got, want)
		}
		mppsN := float64(stN.Packets) / replayNSec / 1e6
		out.AddRow("replay", queues, mppsN, mppsN/legacyMpps)
	}
	return out, nil
}

// diffDecodeTables reports the first divergence between two decode
// tables, or nil when they are identical.
func diffDecodeTables(got, want map[flowkey.FiveTuple]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("table sizes %d vs %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return fmt.Errorf("key %v: %d vs %d (present=%v)", k, g, w, ok)
		}
	}
	return nil
}
