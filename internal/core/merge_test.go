package core

import (
	"math"
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/xrand"
)

// The merge path is load-bearing for internal/shard: every Decode of a
// sharded engine folds N per-worker sketches into a fresh one, so the
// tests below pin merge behaviour for every bucket-occupancy mix the
// shards can present — empty vs empty, filled vs empty, empty vs
// filled, same key, and conflicting keys.

// fillDisjoint inserts n flows drawn from [base, base+universe) so two
// sketches can be given overlapping or disjoint key populations.
func fillDisjoint(s *Basic[flowkey.FiveTuple], rng *xrand.Source, base, universe uint32, n int) uint64 {
	var total uint64
	for i := 0; i < n; i++ {
		w := rng.Uint64n(7) + 1
		s.Insert(tuple(base+uint32(rng.Uint64n(uint64(universe))), 80), w)
		total += w
	}
	return total
}

// TestMergeIntoEmptyCopiesVerbatim: folding a shard into a fresh empty
// sketch must reproduce the shard bucket-for-bucket and must consume
// no randomness — this is exactly how shard's replay builds its merged
// sketch, and it is what makes the 1-queue replay bit-identical to the
// sequential path.
func TestMergeIntoEmptyCopiesVerbatim(t *testing.T) {
	cfg := Config{Arrays: 2, BucketsPerArray: 16, Seed: 3}
	src := NewBasic[flowkey.FiveTuple](cfg)
	fillDisjoint(src, xrand.New(1), 0, 200, 5000)

	dst := NewBasic[flowkey.FiveTuple](cfg)
	rngBefore := dst.rng.State()
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if dst.rng.State() != rngBefore {
		t.Fatal("merging into an empty sketch consumed randomness")
	}
	for i := range dst.buckets {
		if dst.buckets[i] != src.buckets[i] {
			t.Fatalf("bucket %d differs after merge into empty: %+v vs %+v",
				i, dst.buckets[i], src.buckets[i])
		}
	}
}

// TestMergeEmptyOtherIsNoop: a worker that saw no traffic must not
// perturb the merged state (occupancy mix: filled vs empty).
func TestMergeEmptyOtherIsNoop(t *testing.T) {
	cfg := Config{Arrays: 2, BucketsPerArray: 16, Seed: 3}
	a := NewBasic[flowkey.FiveTuple](cfg)
	fillDisjoint(a, xrand.New(2), 0, 200, 5000)
	before := make([]Bucket[flowkey.FiveTuple], len(a.buckets))
	copy(before, a.buckets)
	rngBefore := a.rng.State()

	if err := a.Merge(NewBasic[flowkey.FiveTuple](cfg)); err != nil {
		t.Fatal(err)
	}
	if a.rng.State() != rngBefore {
		t.Fatal("merging an empty sketch consumed randomness")
	}
	for i := range a.buckets {
		if a.buckets[i] != before[i] {
			t.Fatalf("bucket %d changed when merging an empty shard", i)
		}
	}
}

// TestMergeMixedOccupancyInvariants drives merges between partially
// filled shards (so every slot pairing occurs: empty-empty, one-sided,
// same-key, conflicting-key) and checks the per-bucket invariants:
// values add, and the surviving key comes from one of the two inputs —
// from the non-empty side when only one side is occupied.
func TestMergeMixedOccupancyInvariants(t *testing.T) {
	cfg := Config{Arrays: 2, BucketsPerArray: 64, Seed: 11}
	for trial := 0; trial < 8; trial++ {
		a := NewBasic[flowkey.FiveTuple](cfg)
		b := NewBasic[flowkey.FiveTuple](cfg)
		a.Reseed(uint64(trial)*2 + 1)
		b.Reseed(uint64(trial)*2 + 2)
		rng := xrand.New(uint64(trial) + 100)
		// Sparse fills of different sizes leave many empty buckets on
		// both sides; the overlapping universe [500,700) forces both
		// same-key and conflicting-key collisions.
		fillDisjoint(a, rng, 0, 300, 40*(trial+1))
		fillDisjoint(b, rng, 500, 200, 25*(trial+1))
		fillDisjoint(a, rng, 500, 200, 10*(trial+1))

		av := make([]Bucket[flowkey.FiveTuple], len(a.buckets))
		copy(av, a.buckets)
		bv := b.buckets
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		for i := range a.buckets {
			got, x, y := a.buckets[i], av[i], bv[i]
			if got.Val != x.Val+y.Val {
				t.Fatalf("trial %d bucket %d: val %d, want %d+%d", trial, i, got.Val, x.Val, y.Val)
			}
			switch {
			case x.Val == 0 && y.Val == 0:
				if got != (Bucket[flowkey.FiveTuple]{}) {
					t.Fatalf("trial %d bucket %d: empty+empty produced %+v", trial, i, got)
				}
			case x.Val == 0:
				if got.Key != y.Key {
					t.Fatalf("trial %d bucket %d: empty+filled kept wrong key", trial, i)
				}
			case y.Val == 0:
				if got.Key != x.Key {
					t.Fatalf("trial %d bucket %d: filled+empty kept wrong key", trial, i)
				}
			default:
				if got.Key != x.Key && got.Key != y.Key {
					t.Fatalf("trial %d bucket %d: merged key %v from neither input", trial, i, got.Key)
				}
				if x.Key == y.Key && got.Key != x.Key {
					t.Fatalf("trial %d bucket %d: same-key merge replaced the key", trial, i)
				}
			}
		}
	}
}

// TestMergeConflictProbability pins the conflicting-key rule: the
// surviving key is chosen with probability proportional to its mass
// (the stochastic variance minimization rule applied to the
// aggregate). With masses 3w vs w, the lighter key must win ~1/4 of
// the time.
func TestMergeConflictProbability(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const trials = 4000
	keyA, keyB := tuple(1, 1), tuple(2, 2)
	wins := 0
	for trial := 0; trial < trials; trial++ {
		tb := newTable[flowkey.FiveTuple](Config{Arrays: 1, BucketsPerArray: 1, Seed: uint64(trial)})
		a := Bucket[flowkey.FiveTuple]{Key: keyA, Val: 300}
		b := Bucket[flowkey.FiveTuple]{Key: keyB, Val: 100}
		mergeBuckets(&tb, &a, &b)
		if a.Val != 400 {
			t.Fatalf("conflict merge lost mass: %d", a.Val)
		}
		if a.Key == keyB {
			wins++
		}
	}
	p := float64(wins) / trials
	if math.Abs(p-0.25) > 0.03 {
		t.Fatalf("lighter key survived with probability %.3f, want ~0.25", p)
	}
}

// TestMergeHardwareMixedOccupancy: the hardware variant shares the
// table-level merge; check conservation and decode sanity across
// partially filled shards (each array independently conserves the
// inserted weight, so totals add across shards too).
func TestMergeHardwareMixedOccupancy(t *testing.T) {
	cfg := Config{Arrays: 2, BucketsPerArray: 32, Seed: 13}
	a := NewHardware[flowkey.FiveTuple](cfg)
	b := NewHardware[flowkey.FiveTuple](cfg)
	b.Reseed(99)
	rng := xrand.New(17)
	var total uint64
	for i := 0; i < 12000; i++ {
		w := rng.Uint64n(5) + 1
		k := tuple(uint32(rng.Uint64n(150)), 443)
		if rng.Uint64n(3) == 0 { // uneven split: b stays sparser than a
			b.Insert(k, w)
		} else {
			a.Insert(k, w)
		}
		total += w
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// Each of the d arrays absorbs every insert once in the hardware
	// variant, so the merged total is d times the stream weight.
	if got := a.SumValues(); got != uint64(cfg.Arrays)*total {
		t.Fatalf("merged hardware sum = %d, want %d", got, uint64(cfg.Arrays)*total)
	}
	for k, v := range a.Decode() {
		if v == 0 {
			t.Fatalf("decoded zero estimate for %v", k)
		}
	}
}

// TestCompatibleMirrorsMergePrecondition: Compatible must say yes
// exactly when Merge would succeed — same geometry and seeds pass,
// any difference in arrays, buckets or seed fails, and the verdict
// matches what Merge actually does.
func TestCompatibleMirrorsMergePrecondition(t *testing.T) {
	base := Config{Arrays: 2, BucketsPerArray: 64, Seed: 9}
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"identical", base, true},
		{"arrays", Config{Arrays: 3, BucketsPerArray: 64, Seed: 9}, false},
		{"buckets", Config{Arrays: 2, BucketsPerArray: 32, Seed: 9}, false},
		{"seed", Config{Arrays: 2, BucketsPerArray: 64, Seed: 10}, false},
	}
	a := NewBasic[flowkey.FiveTuple](base)
	ha := NewHardware[flowkey.FiveTuple](base)
	for _, tc := range cases {
		b := NewBasic[flowkey.FiveTuple](tc.cfg)
		if got := a.Compatible(b); got != tc.want {
			t.Errorf("%s: Compatible = %v, want %v", tc.name, got, tc.want)
		}
		if err := a.Clone().Merge(b); (err == nil) != tc.want {
			t.Errorf("%s: Merge error %v disagrees with Compatible %v", tc.name, err, tc.want)
		}
		hb := NewHardware[flowkey.FiveTuple](tc.cfg)
		if got := ha.Compatible(hb); got != tc.want {
			t.Errorf("%s: Hardware Compatible = %v, want %v", tc.name, got, tc.want)
		}
	}
}
