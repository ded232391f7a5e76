package sketch

import (
	"slices"
	"testing"

	"cocosketch/internal/flowkey"
)

func key(i uint32) flowkey.IPv4 { return flowkey.IPv4FromUint32(i) }

func TestKeySize(t *testing.T) {
	if got := KeySize[flowkey.FiveTuple](); got != flowkey.FiveTupleLen {
		t.Fatalf("KeySize[FiveTuple] = %d", got)
	}
	if got := KeySize[flowkey.IPv4](); got != 4 {
		t.Fatalf("KeySize[IPv4] = %d", got)
	}
	if got := KeySize[flowkey.IPPair](); got != 8 {
		t.Fatalf("KeySize[IPPair] = %d", got)
	}
}

func TestEntriesSortedDescending(t *testing.T) {
	table := map[flowkey.IPv4]uint64{key(1): 5, key(2): 50, key(3): 20}
	entries := Entries(table)
	if len(entries) != 3 {
		t.Fatalf("len = %d", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Size > entries[i-1].Size {
			t.Fatal("entries not sorted descending")
		}
	}
	if entries[0].Key != key(2) || entries[0].Size != 50 {
		t.Fatalf("top entry = %+v", entries[0])
	}
}

func TestEntriesStableUnderTies(t *testing.T) {
	table := map[flowkey.IPv4]uint64{}
	for i := uint32(0); i < 50; i++ {
		table[key(i)] = 7 // all tied
	}
	a := Entries(table)
	b := Entries(table)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie order not deterministic")
		}
	}
}

// TestEntriesHashCollisionDeterministic gives two keys with equal
// Hash(0), found by birthday search, equal sizes: their order must not
// follow map iteration order, so every call returns the same rows.
func TestEntriesHashCollisionDeterministic(t *testing.T) {
	seen := make(map[uint32]flowkey.FiveTuple)
	var a, b flowkey.FiveTuple
	for i := uint32(0); ; i++ {
		k := flowkey.FiveTuple{SrcIP: [4]byte(key(i).AppendBytes(nil)), DstPort: 80, Proto: 6}
		h := k.Hash(0)
		if prev, ok := seen[h]; ok {
			a, b = prev, k
			break
		}
		seen[h] = k
	}
	table := map[flowkey.FiveTuple]uint64{a: 9, b: 9}
	for i := uint32(0); i < 8; i++ {
		table[flowkey.FiveTuple{DstIP: [4]byte(key(i).AppendBytes(nil))}] = 9
	}
	want := Entries(table)
	for call := 0; call < 50; call++ {
		if got := Entries(table); !slices.Equal(got, want) {
			t.Fatalf("call %d: order differs:\n got %v\nwant %v", call, got, want)
		}
	}
}

func TestTopK(t *testing.T) {
	table := map[flowkey.IPv4]uint64{key(1): 1, key(2): 2, key(3): 3, key(4): 4}
	top := TopK(table, 2)
	if len(top) != 2 || top[0].Size != 4 || top[1].Size != 3 {
		t.Fatalf("TopK = %+v", top)
	}
	if got := TopK(table, 99); len(got) != 4 {
		t.Fatalf("TopK over-length = %d entries", len(got))
	}
	if got := TopK(map[flowkey.IPv4]uint64{}, 3); len(got) != 0 {
		t.Fatalf("TopK of empty = %+v", got)
	}
}

func TestThreshold(t *testing.T) {
	table := map[flowkey.IPv4]uint64{key(1): 10, key(2): 100, key(3): 99}
	got := Threshold(table, 100)
	if len(got) != 1 || got[key(2)] != 100 {
		t.Fatalf("Threshold = %v", got)
	}
}

func TestTotalWeight(t *testing.T) {
	table := map[flowkey.IPv4]uint64{key(1): 10, key(2): 100}
	if got := TotalWeight(table); got != 110 {
		t.Fatalf("TotalWeight = %d", got)
	}
	if got := TotalWeight(map[flowkey.IPv4]uint64{}); got != 0 {
		t.Fatalf("TotalWeight(empty) = %d", got)
	}
}
