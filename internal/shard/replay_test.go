package shard

import (
	"bytes"
	"testing"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
)

// replaySketchCfg is the sketch geometry used across the replay tests.
func replaySketchCfg() core.Config {
	return core.Config{Arrays: 2, BucketsPerArray: 2048, Seed: 42}
}

// replayCapture encodes a CAIDA-like trace as an in-memory pcap stream
// and returns both forms.
func replayCapture(t testing.TB, n int, snapLen uint32) (*trace.Trace, []byte) {
	t.Helper()
	tr := trace.CAIDALike(n, 9)
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf, snapLen); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// sequentialDecode replays the capture through the legacy path — full
// FromPCAP decode, then one sequential sketch — and returns its table.
func sequentialDecode(t testing.TB, data []byte, bytesMode bool) map[flowkey.FiveTuple]uint64 {
	t.Helper()
	tr, err := trace.FromPCAP(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewBasic[flowkey.FiveTuple](replaySketchCfg())
	keys := make([]flowkey.FiveTuple, 0, len(tr.Packets))
	ws := make([]uint64, 0, len(tr.Packets))
	for i := range tr.Packets {
		keys = append(keys, tr.Packets[i].Key)
		ws = append(ws, uint64(tr.Packets[i].Size))
	}
	if bytesMode {
		s.InsertBatch(keys, ws)
	} else {
		s.InsertBatchUnit(keys)
	}
	return s.Decode()
}

// diffTables fails the test unless the two decode tables are identical.
func diffTables(t *testing.T, got, want map[flowkey.FiveTuple]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decode table size %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("key %v: got %d (present=%v), want %d", k, g, ok, w)
		}
	}
}

// TestReplayOneQueueMatchesSequential pins the correctness anchor: a
// 1-queue replay produces the bit-identical decode table of the legacy
// FromPCAP + sequential-sketch path, in both packet-count and
// byte-weight modes.
func TestReplayOneQueueMatchesSequential(t *testing.T) {
	_, data := replayCapture(t, 20000, 256)
	for _, bytesMode := range []bool{false, true} {
		merged, st, err := ReplayPCAPBasic(
			ReplayConfig{Queues: 1, Seed: 42, Bytes: bytesMode},
			replaySketchCfg(), bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		diffTables(t, merged.Decode(), sequentialDecode(t, data, bytesMode))
		if st.Skipped != 0 {
			t.Fatalf("bytes=%v: skipped %d packets of a fully decodable trace", bytesMode, st.Skipped)
		}
		if st.Packets != 20000 || st.Starved != 0 {
			t.Fatalf("bytes=%v: stats %+v: want 20000 packets and no starvation", bytesMode, st)
		}
	}
}

// TestReplayQueuesMatchesSequentialShards pins the multi-queue half:
// an N-queue replay of an RSS-partitioned capture reproduces the
// sequential N-shard reference bit for bit — same seed, same split,
// same per-queue insert order, same merge order.
func TestReplayQueuesMatchesSequentialShards(t *testing.T) {
	const queues = 4
	tr, data := replayCapture(t, 20000, 256)
	sketchCfg := replaySketchCfg()
	keys := make([]flowkey.FiveTuple, len(tr.Packets))
	for i := range tr.Packets {
		keys[i] = tr.Packets[i].Key
	}
	want := shardReference(keys, sketchCfg, 7, queues).Decode()

	merged, st, err := ReplayPCAPBasic(
		ReplayConfig{Queues: queues, Seed: 7},
		sketchCfg, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.Queues != queues {
		t.Fatalf("stats queues %d, want %d", st.Queues, queues)
	}
	if st.Packets != uint64(len(tr.Packets)) {
		t.Fatalf("replayed %d packets, trace has %d", st.Packets, len(tr.Packets))
	}
	diffTables(t, merged.Decode(), want)
}

// TestReplaySkipsUndecodableFrames checks the FromPCAP-mirroring skip
// convention: frames the extractor rejects are counted and excluded
// from the sketch, and the remaining packets still match the
// sequential path.
func TestReplaySkipsUndecodableFrames(t *testing.T) {
	tr := trace.CAIDALike(2000, 3)
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet, 256)
	if err != nil {
		t.Fatal(err)
	}
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	const arpFrames = 7
	base := time.Unix(1600000000, 0)
	for i := range tr.Packets {
		frame := packet.Build(tr.Packets[i].Key, packet.BuildOptions{})
		if err := w.WritePacket(base, frame, len(frame)); err != nil {
			t.Fatal(err)
		}
		if i < arpFrames {
			if err := w.WritePacket(base, arp, len(arp)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for _, queues := range []int{1, 3} {
		merged, st, err := ReplayPCAPBasic(
			ReplayConfig{Queues: queues, Seed: 5},
			replaySketchCfg(), bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if st.Skipped != arpFrames {
			t.Fatalf("queues=%d: skipped %d frames, want %d", queues, st.Skipped, arpFrames)
		}
		if st.Packets != uint64(len(tr.Packets)) {
			t.Fatalf("queues=%d: inserted %d packets, want %d", queues, st.Packets, len(tr.Packets))
		}
		if queues == 1 {
			diffTables(t, merged.Decode(), sequentialDecode(t, data, false))
		}
	}
}

// TestReplayTruncatesToSlotCap checks NIC snapshot-length semantics: a
// SlotCap smaller than the captured frames hides all but a prefix from
// the extractor, the header bytes survive, and decode equality with
// the sequential path holds (all headers fit in the first 96 bytes of
// these frames).
func TestReplayTruncatesToSlotCap(t *testing.T) {
	_, data := replayCapture(t, 5000, 512)
	merged, st, err := ReplayPCAPBasic(
		ReplayConfig{Queues: 1, Seed: 42, SlotCap: 96},
		replaySketchCfg(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated == 0 {
		t.Fatal("no truncations recorded with a 96-byte slot cap")
	}
	if st.Skipped != 0 {
		t.Fatalf("truncation to 96 bytes must keep headers decodable, skipped %d", st.Skipped)
	}
	diffTables(t, merged.Decode(), sequentialDecode(t, data, false))
}

// TestReplayMaxSnapLenRecord replays a capture whose middle record is
// exactly pcap.MaxSnapLen bytes, the largest view the reader serves:
// with a SlotCap that covers it and with the default one that
// truncates it, every record is inserted and the decode matches the
// sequential path.
func TestReplayMaxSnapLenRecord(t *testing.T) {
	tr := trace.CAIDALike(3, 11)
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet, pcap.MaxSnapLen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		frame := packet.Build(tr.Packets[i].Key, packet.BuildOptions{})
		if i == 1 {
			frame = append(frame, make([]byte, pcap.MaxSnapLen-len(frame))...)
		}
		if err := w.WritePacket(time.Unix(1600000000, 0), frame, len(frame)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, c := range []struct{ slotCap, truncated int }{{pcap.MaxSnapLen, 0}, {0, 1}} {
		merged, st, err := ReplayPCAPBasic(
			ReplayConfig{Queues: 1, Seed: 42, SlotCap: c.slotCap, Bytes: true},
			replaySketchCfg(), bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if st.Packets != 3 || st.Truncated != uint64(c.truncated) {
			t.Fatalf("slotCap=%d: stats %+v, want 3 packets and %d truncated", c.slotCap, st, c.truncated)
		}
		diffTables(t, merged.Decode(), sequentialDecode(t, data, true))
	}
}

// TestReplaySteadyStateNoAllocs is the allocation gate: the per-burst
// step that each queue goroutine loops over — view-based pcap read,
// key extraction, batch insert — allocates nothing in steady state.
func TestReplaySteadyStateNoAllocs(t *testing.T) {
	_, data := replayCapture(t, 30000, 256)
	pr, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, bytesMode := range []bool{false, true} {
		cfg := normalizeReplay(ReplayConfig{Queues: 1, Seed: 42, Bytes: bytesMode})
		q := newQueueLoop(cfg, pr, core.NewBasic[flowkey.FiveTuple](replaySketchCfg()))
		if err := q.step(); err != nil { // warm up
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := q.step(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("bytes=%v: steady-state burst allocates %.1f times, want 0", bytesMode, n)
		}
		if q.done {
			t.Fatal("trace exhausted during the alloc gate; enlarge the capture")
		}
	}
}

// TestReplayTelemetry checks the burst-level ingest instruments: the
// registry's counters must agree with the returned stats, and the
// burst histogram must have seen every record.
func TestReplayTelemetry(t *testing.T) {
	_, data := replayCapture(t, 5000, 256)
	reg := telemetry.New()
	_, st, err := ReplayPCAPBasic(
		ReplayConfig{Queues: 2, Seed: 1, SlotCap: 96, Telemetry: reg},
		replaySketchCfg(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ingest.skipped").Value(); got != st.Skipped {
		t.Fatalf("ingest.skipped = %d, stats say %d", got, st.Skipped)
	}
	if got := reg.Counter("ingest.truncated").Value(); got == 0 || got != st.Truncated {
		t.Fatalf("ingest.truncated = %d, stats say %d", got, st.Truncated)
	}
	if got := reg.Histogram("ingest.batch_size").Snapshot().Sum; got != st.Packets+st.Skipped {
		t.Fatalf("ingest.batch_size sums to %d records, stats say %d", got, st.Packets+st.Skipped)
	}
}

// BenchmarkReplayQueues measures replay throughput at 1 and 4
// simulated receive queues over a pre-partitioned capture (partitioning
// is setup, not steady state). The benchsmoke gate compares the two
// sub-benchmarks to enforce the multi-queue speedup on multi-core CI.
func BenchmarkReplayQueues(b *testing.B) {
	_, data := replayCapture(b, 100000, 128)
	for _, queues := range []int{1, 4} {
		qs, err := pcap.PartitionRSS(bytes.NewReader(data), queues, 42)
		if err != nil {
			b.Fatal(err)
		}
		name := "queues-1"
		if queues == 4 {
			name = "queues-4"
		}
		b.Run(name, func(b *testing.B) {
			sketchCfg := replaySketchCfg()
			var packets uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := ReplayQueues(
					ReplayConfig{Seed: 42},
					NewBasicFactory(sketchCfg, nil), qs)
				if err != nil {
					b.Fatal(err)
				}
				packets = st.Packets
			}
			b.ReportMetric(float64(packets)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
		})
	}
}
