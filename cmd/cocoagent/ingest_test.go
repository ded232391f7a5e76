package main

// End-to-end ingest tests: the agent binary replays a capture, reports
// over loopback TCP, and the collector's retained epoch sketch must
// decode bit-identically to a sequential reference over the same
// frames.

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

// Shared geometry of the ingest tests (agent flags and references).
const (
	ingestMemKB = 64
	ingestD     = 2
	ingestSeed  = 5
)

func ingestCfg() core.Config {
	return core.ConfigForMemory[flowkey.FiveTuple](ingestD, ingestMemKB*1024, ingestSeed)
}

// writeCapture writes the trace's frames to a pcap file, with an ARP
// frame after every 1000th packet, and returns the path and the keys
// the extractor accepts, in capture order.
func writeCapture(t *testing.T, tr *trace.Trace) (string, []flowkey.FiveTuple) {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet, 128)
	if err != nil {
		t.Fatal(err)
	}
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	ts := time.Unix(1600000000, 0)
	var frame []byte
	keys := make([]flowkey.FiveTuple, 0, len(tr.Packets))
	for i := range tr.Packets {
		frame = packet.AppendBuild(frame[:0], tr.Packets[i].Key, packet.BuildOptions{})
		if err := w.WritePacket(ts, frame, len(frame)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tr.Packets[i].Key)
		if i%1000 == 999 {
			if err := w.WritePacket(ts, arp, len(arp)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, keys
}

// sequential inserts the keys one at a time into one core.Basic.
func sequential(keys []flowkey.FiveTuple) *core.Basic[flowkey.FiveTuple] {
	s := core.NewBasic[flowkey.FiveTuple](ingestCfg())
	for _, k := range keys {
		s.Insert(k, 1)
	}
	return s
}

// shardReference is the sequential N-shard reference: split the keys
// by flowkey.RSSIndex, insert each split in order into its own
// shard.NewBasicFactory sketch, and merge the shards in queue order.
func shardReference(keys []flowkey.FiveTuple, n int) *core.Basic[flowkey.FiveTuple] {
	factory := shard.NewBasicFactory(ingestCfg(), nil)
	splits := make([][]flowkey.FiveTuple, n)
	for _, k := range keys {
		q := flowkey.RSSIndex(k, ingestSeed, n)
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

// runAgent runs one epoch of the agent binary with the shared geometry
// against a fresh in-process collector and returns the decode of the
// epoch-0 sketch the collector retained for agent id 1.
func runAgent(t *testing.T, extra ...string) map[flowkey.FiveTuple]uint64 {
	t.Helper()
	collector, addr := startCollector(t, ingestMemKB, ingestD, ingestSeed)
	args := append([]string{
		"-id", "1", "-collector", addr, "-epochs", "1",
		"-mem", strconv.Itoa(ingestMemKB), "-d", strconv.Itoa(ingestD),
		"-seed", strconv.Itoa(ingestSeed),
	}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d\nstderr: %s", code, stderr.String())
	}
	shards, ok := collector.EpochShards(0)
	if !ok || shards[1] == nil {
		t.Fatalf("collector holds no epoch-0 sketch from agent 1 (%v)", shards)
	}
	return shards[1].Decode()
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

// TestRunPCAPMatchesSequential streams a capture with -workers 1: the
// collector's epoch decodes exactly like a sequential core.Basic fed
// the capture's keyable frames one at a time.
func TestRunPCAPMatchesSequential(t *testing.T) {
	path, keys := writeCapture(t, trace.CAIDALike(30_000, 21))
	got := runAgent(t, "-pcap", path, "-workers", "1")
	diffTables(t, got, sequential(keys).Decode())
}

// TestRunPCAPMatchesShardReference streams the same kind of capture
// with -workers 4: the collector's epoch decodes exactly like the
// sequential 4-shard reference.
func TestRunPCAPMatchesShardReference(t *testing.T) {
	path, keys := writeCapture(t, trace.CAIDALike(30_000, 22))
	got := runAgent(t, "-pcap", path, "-workers", "4")
	diffTables(t, got, shardReference(keys, 4).Decode())
}

// TestRunSyntheticMatchesSequential pins synthetic mode: epoch 0 of
// agent 1 measures trace.CAIDALike(packets, seed+1000), and with
// -workers 1 the collector's epoch decodes exactly like a sequential
// core.Basic over that trace.
func TestRunSyntheticMatchesSequential(t *testing.T) {
	tr := trace.CAIDALike(20_000, ingestSeed+1000)
	keys := make([]flowkey.FiveTuple, len(tr.Packets))
	for i := range tr.Packets {
		keys[i] = tr.Packets[i].Key
	}
	got := runAgent(t, "-packets", "20000", "-workers", "1")
	diffTables(t, got, sequential(keys).Decode())
}

// TestRunIDOutOfRangeExitsUsage: agent ids travel as uint16, so an id
// above 65535 would alias a smaller one and the collector would take
// its reports as duplicates. The agent must refuse it before
// reporting anything.
func TestRunIDOutOfRangeExitsUsage(t *testing.T) {
	collector, addr := startCollector(t, ingestMemKB, ingestD, ingestSeed)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-id", "65537", "-collector", addr, "-packets", "1000",
		"-mem", strconv.Itoa(ingestMemKB), "-d", strconv.Itoa(ingestD),
		"-seed", strconv.Itoa(ingestSeed),
	}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("run = %d, want 2\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if got := collector.AgentsReported(0); got != 0 {
		t.Fatalf("collector took %d reports from an out-of-range id", got)
	}
}
