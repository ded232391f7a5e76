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

// TopK returns the k largest entries of a table in rank order: size
// descending, then Hash(0) ascending, then canonical key bytes
// ascending, so the order is total and never depends on map iteration
// order. k <= 0 returns no entries; k >= len(table) returns them all.
//
// It costs one pass over the table plus O(n log k): a bounded heap
// keeps the k best rows seen so far with the worst at its root, most
// rows lose to the root on size alone, and Hash(0) is computed only for
// rows whose size ties a row they are compared with. The k survivors
// are then sorted.
func TopK[K flowkey.Key](table map[K]uint64, k int) []Entry[K] {
	k = min(k, len(table))
	if k <= 0 {
		return []Entry[K]{}
	}
	rows := make([]ranked[K], 0, k)
	for key, size := range table {
		if len(rows) < k {
			rows = append(rows, ranked[K]{Entry: Entry[K]{Key: key, Size: size}})
			if len(rows) == k && k < len(table) {
				heapify(rows)
			}
			continue
		}
		if size < rows[0].Size {
			continue
		}
		if r := (ranked[K]{Entry: Entry[K]{Key: key, Size: size}}); compareRank(&r, &rows[0]) < 0 {
			rows[0] = r
			siftDown(rows, 0)
		}
	}
	// The sort compares copies, which cannot cache a hash: compute
	// every survivor's up front.
	for i := range rows {
		rows[i].sum()
	}
	slices.SortFunc(rows, func(a, b ranked[K]) int { return compareRank(&a, &b) })
	entries := make([]Entry[K], len(rows))
	for i := range rows {
		entries[i] = rows[i].Entry
	}
	return entries
}

// Entries flattens a table into entries in TopK's rank order: it is
// TopK with k = every row.
func Entries[K flowkey.Key](table map[K]uint64) []Entry[K] {
	return TopK(table, len(table))
}

// ranked is a row under selection, carrying its Hash(0) once computed.
type ranked[K flowkey.Key] struct {
	Entry[K]
	hash   uint32
	hashed bool
}

// sum returns the row's Hash(0), computing it on first use.
func (r *ranked[K]) sum() uint32 {
	if !r.hashed {
		r.hash, r.hashed = r.Key.Hash(0), true
	}
	return r.hash
}

// compareRank is negative when a ranks higher than b: larger size,
// then smaller Hash(0), then smaller canonical key bytes.
func compareRank[K flowkey.Key](a, b *ranked[K]) int {
	if a.Size != b.Size {
		return cmp.Compare(b.Size, a.Size)
	}
	if c := cmp.Compare(a.sum(), b.sum()); c != 0 {
		return c
	}
	return bytes.Compare(a.Key.AppendBytes(nil), b.Key.AppendBytes(nil))
}

// heapify orders h as a heap whose root is its lowest-ranked row.
func heapify[K flowkey.Key](h []ranked[K]) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown restores the heap below i after h[i] was replaced.
func siftDown[K flowkey.Key](h []ranked[K], i int) {
	for {
		worst, l := i, 2*i+1
		if l < len(h) && compareRank(&h[worst], &h[l]) < 0 {
			worst = l
		}
		if r := l + 1; r < len(h) && compareRank(&h[worst], &h[r]) < 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
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
