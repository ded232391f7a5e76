package sketch

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/xrand"
)

// referenceEntries is the full-sort Entries that TopK's bounded
// selection replaced, kept verbatim as the ranking reference.
func referenceEntries[K flowkey.Key](table map[K]uint64) []Entry[K] {
	type row struct {
		Entry[K]
		hash uint32
	}
	rows := make([]row, 0, len(table))
	for k, v := range table {
		rows = append(rows, row{Entry[K]{Key: k, Size: v}, k.Hash(0)})
	}
	slices.SortFunc(rows, func(a, b row) int {
		switch {
		case a.Size != b.Size:
			return cmp.Compare(b.Size, a.Size)
		case a.hash != b.hash:
			return cmp.Compare(a.hash, b.hash)
		}
		return bytes.Compare(a.Key.AppendBytes(nil), b.Key.AppendBytes(nil))
	})
	entries := make([]Entry[K], len(rows))
	for i := range rows {
		entries[i] = rows[i].Entry
	}
	return entries
}

// hashCollision finds two distinct 5-tuples with equal Hash(0) by
// birthday search.
func hashCollision() (a, b flowkey.FiveTuple) {
	seen := make(map[uint32]flowkey.FiveTuple)
	for i := uint32(0); ; i++ {
		k := flowkey.FiveTuple{SrcIP: [4]byte(key(i).AppendBytes(nil)), DstPort: 80, Proto: 6}
		h := k.Hash(0)
		if prev, ok := seen[h]; ok {
			return prev, k
		}
		seen[h] = k
	}
}

// tiedTable draws n rows whose sizes come from only a few values, so
// long tie runs straddle every cut, and plants the collision pair at a
// drawn size.
func tiedTable(rng *xrand.Source, n int, a, b flowkey.FiveTuple) map[flowkey.FiveTuple]uint64 {
	sizes := []uint64{1, 1, 1, 2, 2, 3, 5, 5, 8, 40}
	t := make(map[flowkey.FiveTuple]uint64, n+2)
	for len(t) < n {
		k := flowkey.FiveTuple{
			SrcIP:   [4]byte{10, 0, byte(rng.Uint64n(4)), byte(rng.Uint64n(256))},
			DstPort: uint16(rng.Uint64n(8)),
		}
		t[k] = sizes[rng.Uint64n(uint64(len(sizes)))]
	}
	s := sizes[rng.Uint64n(uint64(len(sizes)))]
	t[a], t[b] = s, s
	return t
}

// tieBoundary returns a k that cuts inside a tie run of ref (-1 when
// ref has no tie).
func tieBoundary[K flowkey.Key](ref []Entry[K]) int {
	for i := 1; i+1 < len(ref); i++ {
		if ref[i-1].Size == ref[i].Size && ref[i].Size == ref[i+1].Size {
			return i
		}
	}
	return -1
}

// TestTopKMatchesReference pins the bounded selection to the full-sort
// reference on random tables with heavy size ties and a Hash(0)
// collision pair: TopK(t, k) is reference[:k] for every k that
// matters, and Entries is the whole reference.
func TestTopKMatchesReference(t *testing.T) {
	a, b := hashCollision()
	rng := xrand.New(31)
	for trial := 0; trial < 40; trial++ {
		n := 2 + int(rng.Uint64n(300))
		table := tiedTable(rng, n, a, b)
		ref := referenceEntries(table)
		n = len(ref)
		ks := []int{0, 1, n - 1, n, n + 5}
		if k := tieBoundary(ref); k > 0 {
			ks = append(ks, k)
		} else {
			t.Fatalf("trial %d: table has no tie run", trial)
		}
		for _, k := range ks {
			if got, want := TopK(table, k), ref[:min(k, n)]; !slices.Equal(got, want) {
				t.Fatalf("trial %d n=%d k=%d:\n got %v\nwant %v", trial, n, k, got, want)
			}
		}
		if got := Entries(table); !slices.Equal(got, ref) {
			t.Fatalf("trial %d: Entries differs from the reference", trial)
		}
	}
}

// TestTopKCollisionPairOrder cuts exactly between the two colliding
// keys: only the canonical key bytes decide which one survives.
func TestTopKCollisionPairOrder(t *testing.T) {
	a, b := hashCollision()
	table := map[flowkey.FiveTuple]uint64{a: 9, b: 9}
	for i := uint32(0); i < 5; i++ {
		table[flowkey.FiveTuple{DstIP: [4]byte(key(i).AppendBytes(nil))}] = 10
	}
	ref := referenceEntries(table)
	for k := 0; k <= len(table); k++ {
		if got := TopK(table, k); !slices.Equal(got, ref[:k]) {
			t.Fatalf("k=%d:\n got %v\nwant %v", k, got, ref[:k])
		}
	}
}

// TestTopKNegative pins that k < 0 behaves like k = 0: no entries, no
// panic.
func TestTopKNegative(t *testing.T) {
	table := map[flowkey.IPv4]uint64{key(1): 1, key(2): 2}
	for _, k := range []int{-1, -100, 0} {
		if got := TopK(table, k); got == nil || len(got) != 0 {
			t.Fatalf("TopK(t, %d) = %#v, want an empty slice", k, got)
		}
	}
}
