// Package sketch defines the interfaces shared by CocoSketch and every
// baseline algorithm, plus small helpers used across the evaluation
// harness (key sizing, top-k extraction, full-key tables).
package sketch

import (
	"bytes"
	"cmp"
	"slices"

	"cocosketch/internal/flowkey"
)

// Sketch is the common contract of all flow-size summaries: a stream of
// (key, weight) updates followed by point queries. Implementations are
// not safe for concurrent use unless documented otherwise.
type Sketch[K flowkey.Key] interface {
	// Insert adds weight w to flow key.
	Insert(key K, w uint64)
	// Query returns the estimated size of flow key (0 if unknown).
	Query(key K) uint64
	// MemoryBytes reports the configured data-plane memory footprint.
	MemoryBytes() int
	// Name identifies the algorithm in experiment tables.
	Name() string
}

// Decoder is implemented by sketches that can enumerate the full-key
// flows they currently record — the control-plane "Step 3" of the paper
// (build the table of full keys). The returned table maps each recorded
// full key to its estimated size.
type Decoder[K flowkey.Key] interface {
	Sketch[K]
	Decode() map[K]uint64
}

// Builder constructs a sketch for a given total memory budget in bytes.
// Experiment runners sweep memory by invoking builders.
type Builder[K flowkey.Key] func(memoryBytes int) Sketch[K]

// KeySize returns the canonical encoding length in bytes of key type K.
func KeySize[K flowkey.Key]() int {
	var zero K
	return len(zero.AppendBytes(nil))
}

// Entry is one row of a decoded full-key table.
type Entry[K flowkey.Key] struct {
	Key  K
	Size uint64
}

// TopK returns the k largest entries of a table, ties broken
// deterministically by hash so results are stable across runs.
func TopK[K flowkey.Key](table map[K]uint64, k int) []Entry[K] {
	entries := Entries(table)
	if k > len(entries) {
		k = len(entries)
	}
	return entries[:k]
}

// Entries flattens a table into entries sorted by descending size.
// Equal sizes are ordered by Hash(0), then by canonical key bytes, so
// the order is total and never depends on map iteration order.
func Entries[K flowkey.Key](table map[K]uint64) []Entry[K] {
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

// Threshold filters a table, keeping flows of size >= threshold.
func Threshold[K flowkey.Key](table map[K]uint64, threshold uint64) map[K]uint64 {
	out := make(map[K]uint64)
	for k, v := range table {
		if v >= threshold {
			out[k] = v
		}
	}
	return out
}

// TotalWeight sums the sizes in a table.
func TotalWeight[K flowkey.Key](table map[K]uint64) uint64 {
	var sum uint64
	for _, v := range table {
		sum += v
	}
	return sum
}
