package tasks

import (
	"fmt"

	"cocosketch/internal/flowkey"
)

// Node2D identifies one node of the 2-d (source, destination) prefix
// lattice.
type Node2D struct {
	Pair   flowkey.IPPair
	SrcLen uint8
	DstLen uint8
}

// String renders the node as "src/len->dst/len".
func (n Node2D) String() string {
	return fmt.Sprintf("%v/%d->%v/%d", n.Pair.Src, n.SrcLen, n.Pair.Dst, n.DstLen)
}

// Levels2D holds one size table per lattice node; index [sp][dp].
type Levels2D [][]map[flowkey.IPPair]uint64

// NewLevels2D allocates an empty 33×33 grid.
func NewLevels2D() Levels2D {
	grid := make(Levels2D, HierarchyDepth1D)
	for sp := range grid {
		grid[sp] = make([]map[flowkey.IPPair]uint64, HierarchyDepth1D)
		for dp := range grid[sp] {
			grid[sp][dp] = make(map[flowkey.IPPair]uint64)
		}
	}
	return grid
}

// Levels2DFromCounts aggregates exact (or estimated) host-pair counts
// into every lattice node. Each node is rolled up from the next finer
// one — (sp, dp) from (sp, dp+1), and (sp, 32) from (sp+1, 32) — so a
// level costs one update per entry of a table that shrinks as the
// prefixes coarsen, instead of one update per input pair.
func Levels2DFromCounts(counts map[flowkey.IPPair]uint64) Levels2D {
	grid := make(Levels2D, HierarchyDepth1D)
	for sp := range grid {
		grid[sp] = make([]map[flowkey.IPPair]uint64, HierarchyDepth1D)
	}
	grid[32][32] = rollUp2D(counts, 32, 32)
	for sp := 32; sp >= 0; sp-- {
		if sp < 32 {
			grid[sp][32] = rollUp2D(grid[sp+1][32], sp, 32)
		}
		for dp := 31; dp >= 0; dp-- {
			grid[sp][dp] = rollUp2D(grid[sp][dp+1], sp, dp)
		}
	}
	return grid
}

// rollUp2D aggregates a table into its (sp, dp) prefixes.
func rollUp2D(finer map[flowkey.IPPair]uint64, sp, dp int) map[flowkey.IPPair]uint64 {
	out := make(map[flowkey.IPPair]uint64)
	for pair, v := range finer {
		out[pair.Prefix(sp, dp)] += v
	}
	return out
}

// Query returns the aggregate size of a node (0 if absent).
func (g Levels2D) Query(n Node2D) uint64 {
	return g[n.SrcLen][n.DstLen][n.Pair.Prefix(int(n.SrcLen), int(n.DstLen))]
}

// descendant2D reports whether a is a (strict or equal) descendant of b.
func descendant2D(a, b Node2D) bool {
	if a.SrcLen < b.SrcLen || a.DstLen < b.DstLen {
		return false
	}
	return a.Pair.Prefix(int(b.SrcLen), int(b.DstLen)) == b.Pair
}

// ExtractHHH2D computes 2-d hierarchical heavy hitters over the
// lattice. Nodes are processed most-specific first (descending
// srcLen+dstLen). The conditioned count subtracts the maximal HHH
// descendants and corrects pairwise overlaps by inclusion–exclusion
// (the standard depth-2 approximation for the 2-d diamond).
func ExtractHHH2D(grid Levels2D, threshold uint64) map[Node2D]uint64 {
	hhh := make(map[Node2D]uint64)
	var found []Node2D
	for total := 64; total >= 0; total-- {
		for sp := 32; sp >= 0; sp-- {
			dp := total - sp
			if dp < 0 || dp > 32 {
				continue
			}
			for pair, est := range grid[sp][dp] {
				n := Node2D{Pair: pair, SrcLen: uint8(sp), DstLen: uint8(dp)}
				cond := conditionedCount2D(grid, n, est, found)
				if cond >= threshold {
					hhh[n] = cond
					found = append(found, n)
				}
			}
		}
	}
	return hhh
}

// conditionedCount2D subtracts traffic covered by already-found HHH
// descendants of n.
func conditionedCount2D(grid Levels2D, n Node2D, est uint64, found []Node2D) uint64 {
	// Collect descendants of n in the found set, keeping only maximal
	// ones (those not below another found descendant).
	var desc []Node2D
	for _, h := range found {
		if h != n && descendant2D(h, n) {
			desc = append(desc, h)
		}
	}
	var maximal []Node2D
	for i, h := range desc {
		isMax := true
		for j, g := range desc {
			if i != j && h != g && descendant2D(h, g) {
				isMax = false
				break
			}
		}
		if isMax {
			maximal = append(maximal, h)
		}
	}
	cond := int64(est)
	for _, h := range maximal {
		cond -= int64(grid.Query(h))
	}
	// Pairwise inclusion–exclusion: add back the greatest lower bounds.
	for i := 0; i < len(maximal); i++ {
		for j := i + 1; j < len(maximal); j++ {
			if glb, ok := glb2D(maximal[i], maximal[j]); ok {
				cond += int64(grid.Query(glb))
			}
		}
	}
	if cond < 0 {
		return 0
	}
	return uint64(cond)
}

// glb2D returns the meet of two lattice nodes: the most general node
// below both (longest prefixes of each dimension). ok is false when the
// nodes are disjoint (their prefixes conflict).
func glb2D(a, b Node2D) (Node2D, bool) {
	sp := max(int(a.SrcLen), int(b.SrcLen))
	dp := max(int(a.DstLen), int(b.DstLen))
	// The meet exists only if a and b agree on their common prefixes;
	// take the more specific pair and verify it matches both.
	pair := a.Pair
	if int(b.SrcLen) > int(a.SrcLen) {
		pair.Src = b.Pair.Src
	}
	if int(b.DstLen) > int(a.DstLen) {
		pair.Dst = b.Pair.Dst
	}
	n := Node2D{Pair: pair.Prefix(sp, dp), SrcLen: uint8(sp), DstLen: uint8(dp)}
	if !descendant2D(n, a) || !descendant2D(n, b) {
		return Node2D{}, false
	}
	return n, true
}
