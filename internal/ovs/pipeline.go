package ovs

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/trace"
)

// Config parameterizes a pipeline run.
type Config struct {
	// Threads is the number of Rx-queue/measurement thread pairs
	// (the x-axis of Figure 15(a)).
	Threads int
	// MemoryBytes is the total sketch memory, split across shards.
	MemoryBytes int
	// RingCapacity per thread (defaults to 4096, the DPDK default).
	RingCapacity int
	// WithSketch false measures the bare datapath ("OVS w/o Ours").
	WithSketch bool
	// DropOnFull makes the datapath drop packets when a ring is full
	// (NIC-like overload behaviour) instead of spinning losslessly.
	DropOnFull bool
	// Seed drives the RSS split (flowkey.RSSIndex) and the sketch
	// shards.
	Seed uint64
}

// transferBatch is the burst size of the ring transfer loops and the
// sketch insert batches, matching DPDK's default rx burst of 32–64
// packets.
const transferBatch = 64

// Stats reports a run's outcome.
type Stats struct {
	Packets uint64
	// Drops counts packets discarded at full rings (DropOnFull only).
	Drops   uint64
	Elapsed time.Duration
}

// Mpps is million packets per second moved through the rings.
func (s Stats) Mpps() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Packets) / s.Elapsed.Seconds() / 1e6
}

// Run replays the trace through per-thread Rx queues. As in the
// paper's deployment, each Rx queue has its own datapath poller: the
// trace is pre-partitioned by flowkey.RSSIndex (receive-side scaling), and
// every queue gets a producer goroutine (the PMD thread writing headers
// into the ring) paired with a measurement goroutine updating a private
// CocoSketch shard. It returns the run stats and, when WithSketch, the
// merged full-key decode across shards.
//
// Scaling with Threads requires physical cores; on a single-core host
// the pairs time-slice and throughput stays flat.
func Run(tr *trace.Trace, cfg Config) (Stats, map[flowkey.FiveTuple]uint64) {
	threads := cfg.Threads
	if threads <= 0 {
		threads = 1
	}
	ringCap := cfg.RingCapacity
	if ringCap <= 0 {
		ringCap = 4096
	}
	// Receive-side scaling: split flows across queues with the
	// repository's one RSS function, as pcap.PartitionRSS does.
	shards := make([][]trace.Packet, threads)
	if threads == 1 {
		shards[0] = tr.Packets
	} else {
		for i := range shards {
			shards[i] = make([]trace.Packet, 0, len(tr.Packets)/threads+1)
		}
		for i := range tr.Packets {
			p := tr.Packets[i]
			s := flowkey.RSSIndex(p.Key, cfg.Seed, threads)
			shards[s] = append(shards[s], p)
		}
	}

	rings := make([]*Ring, threads)
	sketches := make([]*core.Basic[flowkey.FiveTuple], threads)
	for i := range rings {
		rings[i] = NewRing(ringCap)
		if cfg.WithSketch {
			mem := cfg.MemoryBytes / threads
			if mem < 1024 {
				mem = 1024
			}
			sketches[i] = core.NewBasicForMemory[flowkey.FiveTuple](
				core.DefaultArrays, mem, cfg.Seed+uint64(i))
		}
	}

	var drops atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(2 * threads)
	start := time.Now()
	for i := 0; i < threads; i++ {
		// The PMD thread: writes this queue's headers into the ring in
		// bursts, as a DPDK rx_burst loop would.
		go func(id int) {
			defer wg.Done()
			ring := rings[id]
			shard := shards[id]
			for off := 0; off < len(shard); {
				end := off + transferBatch
				if end > len(shard) {
					end = len(shard)
				}
				n := ring.TryPushN(shard[off:end])
				off += n
				if off == end {
					continue
				}
				if cfg.DropOnFull {
					// NIC-like overload: discard what did not fit
					// in this burst and move to the next one.
					drops.Add(uint64(end - off))
					off = end
					continue
				}
				runtime.Gosched()
			}
			ring.Close()
		}(i)
		// The measurement thread: drains the ring in bursts and feeds
		// the batched sketch insert path.
		go func(id int) {
			defer wg.Done()
			ring := rings[id]
			sk := sketches[id]
			buf := make([]trace.Packet, transferBatch)
			keys := make([]flowkey.FiveTuple, transferBatch)
			for {
				n := ring.TryPopN(buf)
				if n == 0 {
					if ring.Closed() {
						// Close is published after the final push;
						// one more poll drains a push that raced
						// the empty check above.
						if n = ring.TryPopN(buf); n == 0 {
							return
						}
					} else {
						runtime.Gosched()
						continue
					}
				}
				if sk != nil {
					for j := 0; j < n; j++ {
						keys[j] = buf[j].Key
					}
					sk.InsertBatchUnit(keys[:n])
				}
			}
		}(i)
	}
	wg.Wait()
	stats := Stats{
		Packets: uint64(len(tr.Packets)) - drops.Load(),
		Drops:   drops.Load(),
		Elapsed: time.Since(start),
	}

	if !cfg.WithSketch {
		return stats, nil
	}
	// The RSS split is on the full key, so the shards' key sets are
	// disjoint and summing their decoded tables is exact.
	merged := make(map[flowkey.FiveTuple]uint64)
	for _, sk := range sketches {
		for k, v := range sk.Decode() {
			merged[k] += v
		}
	}
	return stats, merged
}

// Spread summarizes the throughput of repeated runs.
type Spread struct {
	// Median, Min and Max are Mpps over the runs.
	Median, Min, Max float64
	// Runs is the number of runs.
	Runs int
}

// String formats the median with its min–max range.
func (s Spread) String() string {
	return fmt.Sprintf("%.2f [%.2f–%.2f]", s.Median, s.Min, s.Max)
}

// RunRepeated calls Run until at least minRuns runs (at least one)
// have finished and their timed sections add up to at least minTotal.
// A single pass over a short trace lasts milliseconds, so its Mpps is
// timer and scheduler noise; the median over enough runs is not. It
// returns the Mpps spread and the last run's decode.
func RunRepeated(tr *trace.Trace, cfg Config, minRuns int, minTotal time.Duration) (Spread, map[flowkey.FiveTuple]uint64) {
	var (
		mpps    []float64
		total   time.Duration
		decoded map[flowkey.FiveTuple]uint64
	)
	for len(mpps) < max(minRuns, 1) || total < minTotal {
		st, dec := Run(tr, cfg)
		mpps = append(mpps, st.Mpps())
		total += st.Elapsed
		decoded = dec
	}
	sort.Float64s(mpps)
	n := len(mpps)
	return Spread{
		Median: (mpps[(n-1)/2] + mpps[n/2]) / 2,
		Min:    mpps[0],
		Max:    mpps[n-1],
		Runs:   n,
	}, decoded
}
