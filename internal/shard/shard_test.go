package shard

import (
	"bytes"
	"math"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/pcap"
	"cocosketch/internal/trace"
)

func sketchCfg(seed uint64) core.Config {
	return core.Config{Arrays: 2, BucketsPerArray: 512, Seed: seed}
}

// encode writes a trace as an in-memory pcap capture.
func encode(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf, 64); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shardReference is the sequential N-shard reference the multi-queue
// replay must reproduce: split the keys with flowkey.RSSIndex, insert
// each split in order into its own NewBasicFactory sketch, and merge
// the shards in queue order into the factory's merge target.
func shardReference(keys []flowkey.FiveTuple, cfg core.Config, seed uint64, n int) *core.Basic[flowkey.FiveTuple] {
	factory := NewBasicFactory(cfg, nil)
	splits := make([][]flowkey.FiveTuple, n)
	for _, k := range keys {
		q := flowkey.RSSIndex(k, seed, n)
		splits[q] = append(splits[q], k)
	}
	merged := factory(n)
	for i, split := range splits {
		s := factory(i)
		s.InsertBatchUnit(split)
		if err := merged.Merge(s); err != nil {
			panic(err)
		}
	}
	return merged
}

// TestOneWorkerMatchesSequential pins the determinism claim: a 1-queue
// replay must produce the bit-identical decode output of feeding the
// same packets one at a time through a single sequential sketch.
func TestOneWorkerMatchesSequential(t *testing.T) {
	tr := trace.CAIDALike(60_000, 3)
	cfg := sketchCfg(7)

	seq := core.NewBasic[flowkey.FiveTuple](cfg)
	for i := range tr.Packets {
		seq.Insert(tr.Packets[i].Key, 1)
	}
	got, _, err := ReplayPCAPBasic(ReplayConfig{Queues: 1, Seed: 3}, cfg, bytes.NewReader(encode(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	diffTables(t, got.Decode(), seq.Decode())
}

// TestOneWorkerMatchesSequentialBytes repeats the determinism check in
// byte-count mode (InsertBatch with per-packet wire lengths).
func TestOneWorkerMatchesSequentialBytes(t *testing.T) {
	tr := trace.CAIDALike(30_000, 5)
	cfg := sketchCfg(9)
	data := encode(t, tr)
	wire, err := trace.FromPCAP(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	seq := core.NewBasic[flowkey.FiveTuple](cfg)
	for i := range wire.Packets {
		seq.Insert(wire.Packets[i].Key, uint64(wire.Packets[i].Size))
	}
	got, _, err := ReplayPCAPBasic(ReplayConfig{Queues: 1, Seed: 5, Bytes: true}, cfg, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	diffTables(t, got.Decode(), seq.Decode())
}

// TestConservationAcrossWorkers: the merged counter mass must equal
// the packet count for every queue count — no packet is lost or
// double-counted by the RSS split, the replay or the merge.
func TestConservationAcrossWorkers(t *testing.T) {
	tr := trace.CAIDALike(50_000, 11)
	data := encode(t, tr)
	for _, queues := range []int{1, 2, 3, 4, 7} {
		s, st, err := ReplayPCAPBasic(ReplayConfig{Queues: queues, Seed: 11}, sketchCfg(13), bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if st.Queues != queues || st.Packets != uint64(len(tr.Packets)) || st.Skipped != 0 {
			t.Fatalf("queues=%d: stats %+v, want %d packets", queues, st, len(tr.Packets))
		}
		if got := s.SumValues(); got != uint64(len(tr.Packets)) {
			t.Fatalf("queues=%d: merged mass %d, want %d", queues, got, len(tr.Packets))
		}
	}
}

// TestUnbiasedAcrossShards: sharding must not bias estimates. The mean
// estimate of a dominant flow across independently seeded trials must
// track its true size, with the stream spread over 4 queues.
func TestUnbiasedAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const (
		trials  = 60
		packets = 12_000
	)
	var sum, truth float64
	for trial := 0; trial < trials; trial++ {
		tr := trace.CAIDALike(packets, uint64(trial)+50)
		exact := tr.FullCounts()
		// Track the largest flow of this trial's trace.
		var heavy flowkey.FiveTuple
		var heavyN uint64
		for k, v := range exact {
			if v > heavyN {
				heavy, heavyN = k, v
			}
		}
		// A small sketch forces evictions, so replacement randomness is
		// actually exercised.
		s, _, err := ReplayPCAPBasic(ReplayConfig{Queues: 4, Seed: uint64(trial)},
			core.Config{Arrays: 2, BucketsPerArray: 64, Seed: uint64(trial) * 31},
			bytes.NewReader(encode(t, tr)))
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(s.Decode()[heavy])
		truth += float64(heavyN)
	}
	if rel := math.Abs(sum-truth) / truth; rel > 0.05 {
		t.Fatalf("mean heavy-flow estimate off by %.1f%% across %d trials (unbiasedness)",
			rel*100, trials)
	}
}

// TestReplayHardware runs the hardware-friendly variant through a
// 4-queue replay with a hardware factory: each of the d arrays
// independently conserves the stream weight, so the merged mass is d
// times the packet count.
func TestReplayHardware(t *testing.T) {
	tr := trace.CAIDALike(30_000, 31)
	cfg := sketchCfg(37)
	factory := func(i int) *core.Hardware[flowkey.FiveTuple] {
		s := core.NewHardware[flowkey.FiveTuple](cfg)
		if i > 0 {
			s.Reseed(cfg.Seed ^ rngSalt(i))
		}
		return s
	}
	s, _, err := ReplayPCAP(ReplayConfig{Queues: 4, Seed: 31}, factory, bytes.NewReader(encode(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.SumValues(), uint64(cfg.Arrays*len(tr.Packets)); got != want {
		t.Fatalf("hardware merged mass %d, want %d", got, want)
	}
	if len(s.Decode()) == 0 {
		t.Fatal("empty decode")
	}
}

// TestRSSSplitIsDeterministic: two partitions with equal seed and
// queue count must split the stream identically, so their replays
// decode identically.
func TestRSSSplitIsDeterministic(t *testing.T) {
	data := encode(t, trace.CAIDALike(20_000, 47))
	run := func() map[flowkey.FiveTuple]uint64 {
		qs, err := pcap.PartitionRSS(bytes.NewReader(data), 4, 47)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := ReplayQueues(ReplayConfig{}, NewBasicFactory(sketchCfg(53), nil), qs)
		if err != nil {
			t.Fatal(err)
		}
		return s.Decode()
	}
	diffTables(t, run(), run())
}
