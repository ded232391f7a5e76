package packet

import (
	"testing"

	"cocosketch/internal/flowkey"
)

// The AllocsPerRun gates below pin the per-packet allocation count of
// the frame builder at zero (TestExtractNoAllocs gates the extractor),
// so a change cannot silently reintroduce heap traffic into the ingest
// pipeline. Companion gates live in internal/flowkey (HashSeeds),
// internal/core (InsertBatch) and internal/shard (the full replay
// loop); `make bench-alloc` runs them all.

func allocTestKey() flowkey.FiveTuple {
	return flowkey.FiveTuple{
		SrcIP: [4]byte{10, 1, 2, 3}, DstIP: [4]byte{10, 9, 8, 7},
		SrcPort: 443, DstPort: 50000, Proto: ProtoTCP,
	}
}

func TestAppendBuildNoAllocs(t *testing.T) {
	key := allocTestKey()
	opt := BuildOptions{PayloadLen: 64}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendBuild(buf[:0], key, opt)
	}); n != 0 {
		t.Fatalf("AppendBuild into sized buffer allocates %.1f times per run, want 0", n)
	}
}

func TestBuildSingleAllocation(t *testing.T) {
	key := allocTestKey()
	opt := BuildOptions{PayloadLen: 64, VLANID: 3}
	if n := testing.AllocsPerRun(1000, func() {
		Build(key, opt)
	}); n > 1 {
		t.Fatalf("Build allocates %.1f times per run, want 1", n)
	}
}

// TestAppendBuildMatchesBuild pins AppendBuild (and therefore the
// rewritten single-buffer Build) to the legacy layer-by-layer frame
// layout: same bytes, appended after the existing prefix, stale
// capacity bytes cleared.
func TestAppendBuildMatchesBuild(t *testing.T) {
	keys := []flowkey.FiveTuple{
		allocTestKey(),
		{SrcIP: [4]byte{1, 1, 1, 1}, DstIP: [4]byte{2, 2, 2, 2}, SrcPort: 53, DstPort: 53, Proto: ProtoUDP},
		{SrcIP: [4]byte{9, 9, 9, 9}, DstIP: [4]byte{8, 8, 8, 8}, Proto: 47}, // GRE: bare IPv4
	}
	opts := []BuildOptions{
		{},
		{PayloadLen: 1},
		{PayloadLen: 33, VLANID: 100},
		{TCPFlags: TCPSyn},
	}
	for _, key := range keys {
		for _, opt := range opts {
			want := Build(key, opt)
			prefix := []byte{0xDE, 0xAD}
			dirty := make([]byte, 2, 2+len(want)+32)
			copy(dirty, prefix)
			for i := len(dirty); i < cap(dirty); i++ {
				dirty = dirty[:i+1]
				dirty[i] = 0xFF
			}
			dirty = dirty[:2]
			got := AppendBuild(dirty, key, opt)
			if string(got[:2]) != string(prefix) {
				t.Fatalf("AppendBuild overwrote the prefix")
			}
			if string(got[2:]) != string(want) {
				t.Fatalf("AppendBuild(%v,%+v) differs from Build", key, opt)
			}
		}
	}
}
