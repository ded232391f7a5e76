package shard

import (
	"fmt"
	"io"
	"sync"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/telemetry"
)

// This file is the run-to-completion replay path: per-queue sketches
// fed straight from raw pcap streams, the way an
// OVS-DPDK PMD thread polls its receive queue and takes each packet to
// the end (paper §6.1). Each simulated receive queue is one goroutine
// that reads a record as a view into its pcap.Reader's buffer, extracts
// the 5-tuple from that view with packet.ExtractFiveTuple before the
// next read invalidates it, and batch-inserts every burst of keys into
// the queue's private sketch. Nothing crosses goroutines until the
// final merge, and the steady-state loop allocates nothing (DESIGN.md
// §13).

// ReplayConfig parameterizes a replay run.
type ReplayConfig struct {
	// Queues is the number of simulated NIC receive queues, each
	// replayed by its own goroutine (default 1).
	Queues int
	// SlotCap is the number of frame bytes the extractor may see
	// (default DefaultSlotCap). Records longer than SlotCap are parsed
	// from their SlotCap-byte prefix, NIC snapshot-length style, and
	// counted in ReplayStats.Truncated.
	SlotCap int
	// Seed drives the RSS split (flowkey.RSSIndex) when ReplayPCAP
	// partitions a stream into queues; replays with equal Seed and
	// Queues split a stream identically.
	Seed uint64
	// Bytes weights each packet by its original wire length instead of
	// counting packets.
	Bytes bool
	// Telemetry, when non-nil, receives the replay's burst-level
	// metrics (the "ingest." names in DESIGN.md §11).
	Telemetry *telemetry.Registry
}

// DefaultSlotCap is the per-frame byte limit when ReplayConfig leaves
// SlotCap zero — enough for a full 1500-byte MTU frame plus headers.
const DefaultSlotCap = 2048

// ReplayStats summarizes a finished replay.
type ReplayStats struct {
	// Queues is the number of receive queues replayed.
	Queues int
	// Packets counts frames decoded and inserted into the sketches.
	Packets uint64
	// Skipped counts frames the extractor rejected (non-IP, truncated
	// headers) — routed to queue 0 by PartitionRSS and dropped here,
	// mirroring how trace.FromPCAP skips them.
	Skipped uint64
	// Truncated counts records longer than SlotCap, parsed from their
	// SlotCap-byte prefix.
	Truncated uint64
	// Starved is always 0: a run-to-completion queue has no hand-off
	// to wait on. It stays for callers that report it.
	Starved uint64
}

// replayTel groups the replay's telemetry instruments; every field is
// nil (and every record call a nil-check) when the registry is nil.
type replayTel struct {
	truncated *telemetry.Counter
	skipped   *telemetry.Counter
	batchSize *telemetry.Histogram
}

// newReplayTel registers the shared replay metrics.
func newReplayTel(r *telemetry.Registry) replayTel {
	return replayTel{
		truncated: r.Counter("ingest.truncated"),
		skipped:   r.Counter("ingest.skipped"),
		batchSize: r.Histogram("ingest.batch_size"),
	}
}

// queueLoop is one receive queue's state: a positioned pcap reader,
// the queue's private sketch and its burst scratch. Exactly one
// goroutine owns it; the counters are read only after that goroutine
// has returned.
type queueLoop[S Sketch[S]] struct {
	reader  *pcap.Reader
	sketch  S
	slotCap int
	bytes   bool
	keys    []flowkey.FiveTuple
	ws      []uint64
	done    bool

	inserted  uint64
	skipped   uint64
	truncated uint64

	tel replayTel
}

// newQueueLoop builds one queue's loop over a positioned pcap reader.
func newQueueLoop[S Sketch[S]](cfg ReplayConfig, r *pcap.Reader, sketch S) *queueLoop[S] {
	q := &queueLoop[S]{
		reader:  r,
		sketch:  sketch,
		slotCap: cfg.SlotCap,
		bytes:   cfg.Bytes,
		keys:    make([]flowkey.FiveTuple, DefaultBurst),
		tel:     newReplayTel(cfg.Telemetry),
	}
	if cfg.Bytes {
		q.ws = make([]uint64, DefaultBurst)
	}
	return q
}

// step reads up to DefaultBurst records, extracts each key from the
// reader's buffer before the next read invalidates it, and inserts the
// burst's keys into the queue sketch. At end of stream it sets q.done.
// It is the whole loop body, so the allocation gate drives exactly the
// code production runs.
func (q *queueLoop[S]) step() error {
	m, n := 0, 0
	for ; n < len(q.keys); n++ {
		hdr, frame, err := q.reader.Next()
		if err == io.EOF {
			q.done = true
			break
		}
		if err != nil {
			return err
		}
		if len(frame) > q.slotCap {
			frame = frame[:q.slotCap]
			q.truncated++
			q.tel.truncated.Inc()
		}
		key, ok := packet.ExtractFiveTuple(frame)
		if !ok {
			continue
		}
		q.keys[m] = key
		if q.bytes {
			q.ws[m] = uint64(hdr.OriginalLength)
		}
		m++
	}
	if m > 0 {
		if q.bytes {
			q.sketch.InsertBatch(q.keys[:m], q.ws[:m])
		} else {
			q.sketch.InsertBatchUnit(q.keys[:m])
		}
	}
	skip := uint64(n - m)
	q.inserted += uint64(m)
	q.skipped += skip
	q.tel.skipped.Add(skip)
	q.tel.batchSize.Observe(uint64(n))
	return nil
}

// normalizeReplay applies ReplayConfig defaults.
func normalizeReplay(cfg ReplayConfig) ReplayConfig {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.SlotCap <= 0 {
		cfg.SlotCap = DefaultSlotCap
	}
	return cfg
}

// replayReaders runs one goroutine per reader to the end of its stream
// and merges the per-queue sketches (newSketch follows the
// ReplayQueues contract).
func replayReaders[S Sketch[S]](cfg ReplayConfig, newSketch func(i int) S, readers []*pcap.Reader) (S, ReplayStats, error) {
	loops := make([]*queueLoop[S], len(readers))
	for i, r := range readers {
		loops[i] = newQueueLoop(cfg, r, newSketch(i))
	}
	errs := make([]error, len(loops))
	var wg sync.WaitGroup
	for i, q := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !q.done && errs[i] == nil {
				errs[i] = q.step()
			}
		}()
	}
	wg.Wait()

	st := ReplayStats{Queues: len(loops)}
	for _, q := range loops {
		st.Packets += q.inserted
		st.Skipped += q.skipped
		st.Truncated += q.truncated
	}
	var zero S
	for i, err := range errs {
		if err != nil {
			return zero, st, fmt.Errorf("shard: replay queue %d: %w", i, err)
		}
	}
	merged := newSketch(len(loops))
	for i, q := range loops {
		if err := merged.Merge(q.sketch); err != nil {
			return zero, st, fmt.Errorf("shard: merging replay queue %d: %w", i, err)
		}
	}
	return merged, st, nil
}

// ReplayQueues replays pre-partitioned receive queues, one goroutine
// per queue, and merges the per-queue sketches into one. newSketch is
// called with indices 0..len(queues)-1 for the queue sketches and once
// more with index len(queues) for the merge target; all returned
// sketches must be merge-compatible (same geometry and hash seeds —
// in core terms, built from one Config). Queue 0's sketch must start
// in the state a sequential sketch would if the 1-queue replay is to
// reproduce the sequential path exactly (NewBasicFactory arranges
// this by reseeding only indices > 0). Queues come from
// pcap.PartitionRSS, so queue i holds the packets flowkey.RSSIndex
// steers to i, in capture order.
func ReplayQueues[S Sketch[S]](cfg ReplayConfig, newSketch func(i int) S, queues []*pcap.Queue) (S, ReplayStats, error) {
	cfg.Queues = len(queues)
	cfg = normalizeReplay(cfg)
	var zero S
	if len(queues) == 0 {
		return zero, ReplayStats{}, fmt.Errorf("shard: ReplayQueues needs at least one queue")
	}
	readers := make([]*pcap.Reader, len(queues))
	for i, qu := range queues {
		r, err := qu.Open()
		if err != nil {
			return zero, ReplayStats{}, err
		}
		readers[i] = r
	}
	return replayReaders(cfg, newSketch, readers)
}

// ReplayPCAP replays one raw pcap stream. With Queues ≤ 1 the stream
// feeds a single queue directly — no partition pass, no extra copy of
// the capture. With Queues > 1 the stream is first split with
// pcap.PartitionRSS (a one-time allocating setup pass) and then
// replayed concurrently.
func ReplayPCAP[S Sketch[S]](cfg ReplayConfig, newSketch func(i int) S, r io.Reader) (S, ReplayStats, error) {
	cfg = normalizeReplay(cfg)
	var zero S
	if cfg.Queues == 1 {
		pr, err := pcap.NewReader(r)
		if err != nil {
			return zero, ReplayStats{}, err
		}
		if lt := pr.LinkType(); lt != pcap.LinkTypeEthernet {
			return zero, ReplayStats{}, fmt.Errorf("shard: replay supports only Ethernet captures, got link type %d", lt)
		}
		return replayReaders(cfg, newSketch, []*pcap.Reader{pr})
	}
	queues, err := pcap.PartitionRSS(r, cfg.Queues, cfg.Seed)
	if err != nil {
		return zero, ReplayStats{}, err
	}
	return ReplayQueues(cfg, newSketch, queues)
}

// ReplayPCAPBasic is ReplayPCAP specialized to basic CocoSketch
// queues built by NewBasicFactory, with cfg.Telemetry as the shared
// sketch-outcome registry. It is the ingest path cocoagent runs each
// epoch.
func ReplayPCAPBasic(cfg ReplayConfig, sketchCfg core.Config, r io.Reader) (*core.Basic[flowkey.FiveTuple], ReplayStats, error) {
	return ReplayPCAP(cfg, NewBasicFactory(sketchCfg, cfg.Telemetry), r)
}
