package ovs

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/trace"
)

func pkt(i uint32) trace.Packet {
	return trace.Packet{
		Key:  flowkey.FiveTuple{SrcIP: flowkey.IPv4FromUint32(i), Proto: 6},
		Size: 64,
	}
}

func TestRingCapacityRounding(t *testing.T) {
	if got := NewRing(1000).Capacity(); got != 1024 {
		t.Fatalf("capacity = %d, want 1024", got)
	}
	if got := NewRing(0).Capacity(); got != 2 {
		t.Fatalf("capacity = %d, want 2", got)
	}
}

func TestRingFIFO(t *testing.T) {
	r := NewRing(8)
	for i := uint32(0); i < 8; i++ {
		if !r.TryPush(pkt(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.TryPush(pkt(99)) {
		t.Fatal("push into full ring succeeded")
	}
	var p trace.Packet
	for i := uint32(0); i < 8; i++ {
		if !r.TryPop(&p) {
			t.Fatalf("pop %d failed", i)
		}
		if p.Key.SrcIP != flowkey.IPv4FromUint32(i) {
			t.Fatalf("pop %d returned wrong packet %v", i, p.Key)
		}
	}
	if r.TryPop(&p) {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(4)
	var p trace.Packet
	for round := uint32(0); round < 100; round++ {
		if !r.TryPush(pkt(round)) {
			t.Fatalf("push failed on round %d", round)
		}
		if !r.TryPop(&p) || p.Key.SrcIP != flowkey.IPv4FromUint32(round) {
			t.Fatalf("wrap-around mismatch on round %d", round)
		}
	}
}

func TestRingConcurrentSPSC(t *testing.T) {
	r := NewRing(64)
	const n = 100000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(0); i < n; i++ {
			for !r.TryPush(pkt(i)) {
				runtime.Gosched()
			}
		}
		r.Close()
	}()
	var p trace.Packet
	var got uint32
	for {
		if r.TryPop(&p) {
			if p.Key.SrcIP != flowkey.IPv4FromUint32(got) {
				t.Fatalf("out-of-order delivery at %d: %v", got, p.Key)
			}
			got++
			continue
		}
		if r.Closed() && !r.TryPop(&p) {
			break
		}
		runtime.Gosched()
	}
	// A final drain in case Close raced the last pops.
	for r.TryPop(&p) {
		got++
	}
	wg.Wait()
	if got != n {
		t.Fatalf("consumed %d packets, want %d", got, n)
	}
}

func TestPipelineMovesAllPackets(t *testing.T) {
	tr := trace.CAIDALike(50000, 1)
	for _, threads := range []int{1, 2, 4} {
		stats, _ := Run(tr, Config{Threads: threads, WithSketch: false})
		if stats.Packets != uint64(len(tr.Packets)) {
			t.Fatalf("threads=%d moved %d packets, want %d", threads, stats.Packets, len(tr.Packets))
		}
		if stats.Mpps() <= 0 {
			t.Fatalf("threads=%d Mpps = %f", threads, stats.Mpps())
		}
	}
}

func TestPipelineSketchAccuracy(t *testing.T) {
	tr := trace.CAIDALike(200000, 2)
	stats, decoded := Run(tr, Config{
		Threads: 4, MemoryBytes: 512 * 1024, WithSketch: true, Seed: 3,
	})
	if stats.Packets != uint64(len(tr.Packets)) {
		t.Fatal("packet count mismatch")
	}
	if decoded == nil {
		t.Fatal("no decode returned")
	}
	// Sharded decode conserves the total stream weight.
	var sum uint64
	for _, v := range decoded {
		sum += v
	}
	if sum != uint64(len(tr.Packets)) {
		t.Fatalf("decoded total %d, want %d", sum, len(tr.Packets))
	}
	// The top flow must be found with a sane estimate.
	truth := tr.FullCounts()
	var topKey flowkey.FiveTuple
	var topVal uint64
	for k, v := range truth {
		if v > topVal {
			topKey, topVal = k, v
		}
	}
	got := decoded[topKey]
	if got < topVal/2 || got > topVal*2 {
		t.Fatalf("top flow estimate %d, true %d", got, topVal)
	}
}

func TestPipelineShardingDisjoint(t *testing.T) {
	// Each flow must land in exactly one shard: re-running with the
	// same seed gives identical decode (no cross-shard randomness).
	tr := trace.CAIDALike(30000, 4)
	_, d1 := Run(tr, Config{Threads: 3, MemoryBytes: 256 * 1024, WithSketch: true, Seed: 9})
	_, d2 := Run(tr, Config{Threads: 3, MemoryBytes: 256 * 1024, WithSketch: true, Seed: 9})
	if len(d1) != len(d2) {
		t.Fatalf("non-deterministic decode: %d vs %d entries", len(d1), len(d2))
	}
	for k, v := range d1 {
		if d2[k] != v {
			t.Fatalf("non-deterministic estimate for %v", k)
		}
	}
}

func TestPipelineDropOnFull(t *testing.T) {
	// A tiny ring with a sketching consumer WILL overflow when allowed
	// to drop; the moved packet count plus drops must equal the trace.
	tr := trace.CAIDALike(50000, 6)
	stats, dec := Run(tr, Config{
		Threads: 2, RingCapacity: 4, WithSketch: true,
		MemoryBytes: 64 * 1024, DropOnFull: true, Seed: 2,
	})
	if stats.Packets+stats.Drops != uint64(len(tr.Packets)) {
		t.Fatalf("packets %d + drops %d != %d", stats.Packets, stats.Drops, len(tr.Packets))
	}
	var sum uint64
	for _, v := range dec {
		sum += v
	}
	if sum != stats.Packets {
		t.Fatalf("sketch total %d != delivered %d", sum, stats.Packets)
	}
}

func TestPipelineLosslessByDefault(t *testing.T) {
	tr := trace.CAIDALike(20000, 7)
	stats, _ := Run(tr, Config{Threads: 2, RingCapacity: 4, WithSketch: true, MemoryBytes: 64 * 1024})
	if stats.Drops != 0 || stats.Packets != uint64(len(tr.Packets)) {
		t.Fatalf("lossless mode dropped: %+v", stats)
	}
}

func TestPipelineDefaults(t *testing.T) {
	tr := trace.CAIDALike(1000, 5)
	stats, dec := Run(tr, Config{Threads: 0, MemoryBytes: 0, WithSketch: true})
	if stats.Packets != 1000 || dec == nil {
		t.Fatal("defaulted run failed")
	}
}

func BenchmarkPipeline(b *testing.B) {
	tr := trace.CAIDALike(200000, 1)
	for _, threads := range []int{1, 2, 4} {
		name := map[int]string{1: "threads=1", 2: "threads=2", 4: "threads=4"}[threads]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(tr, Config{Threads: threads, MemoryBytes: 512 * 1024, WithSketch: true, Seed: 1})
			}
		})
	}
}

// TestRunRepeatedSpread: RunRepeated honours its run floor, orders its
// spread, and returns a lossless decode of the last run.
func TestRunRepeatedSpread(t *testing.T) {
	tr := trace.CAIDALike(5000, 7)
	sp, dec := RunRepeated(tr, Config{Threads: 2, MemoryBytes: 64 * 1024, WithSketch: true, Seed: 7}, 3, 0)
	if sp.Runs != 3 {
		t.Fatalf("runs = %d, want 3", sp.Runs)
	}
	if !(sp.Min <= sp.Median && sp.Median <= sp.Max) || sp.Min <= 0 {
		t.Fatalf("spread out of order: %+v", sp)
	}
	var mass uint64
	for _, v := range dec {
		mass += v
	}
	if mass != uint64(len(tr.Packets)) {
		t.Fatalf("decoded mass %d, want %d", mass, len(tr.Packets))
	}
	if sp, _ := RunRepeated(tr, Config{}, 0, 20*time.Millisecond); sp.Runs < 1 {
		t.Fatalf("runs = %d under a time floor, want at least 1", sp.Runs)
	}
}
