package query

import (
	"slices"
	"testing"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/sketch"
	"cocosketch/internal/trace"
)

// decodedEpoch decodes n CAIDA-like packets at the shipped sketch
// geometry (500 KB, d = core.DefaultArrays, seed 1).
func decodedEpoch(n int) map[flowkey.FiveTuple]uint64 {
	sk := core.NewBasic[flowkey.FiveTuple](core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500*1024, 1))
	for _, p := range trace.CAIDALike(n, 1).Packets {
		sk.Insert(p.Key, 1)
	}
	return sk.Decode()
}

// topMasks are the six evaluation masks plus two prefix masks.
func topMasks(t *testing.T) []flowkey.Mask {
	masks := flowkey.EvaluationMasks()
	for _, spec := range []string{"SrcIP/24", "SrcIP/16+DstIP/8"} {
		m, err := flowkey.ParseMask(spec)
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, m)
	}
	return masks
}

// TestTopMatchesFullSort pins Engine.Top, which ranks the table in
// place for the identity mask and aggregates otherwise, against the
// full sort of GroupBy: Top(m, k) is Entries(GroupBy(m))[:k] for every
// mask and every k that matters. (sketch's tests pin Entries to the
// full-sort reference it replaced.)
func TestTopMatchesFullSort(t *testing.T) {
	e := NewEngine(decodedEpoch(1 << 16))
	for _, m := range topMasks(t) {
		ref := sketch.Entries(e.GroupBy(m))
		n := len(ref)
		ks := []int{-1, 0, 1, 10, n - 1, n, n + 5}
		for i := 1; i+1 < n; i++ {
			if ref[i-1].Size == ref[i].Size && ref[i].Size == ref[i+1].Size {
				ks = append(ks, i) // cuts inside a tie run
				break
			}
		}
		for _, k := range ks {
			want := ref[:max(0, min(k, n))]
			if got := e.Top(m, k); !slices.Equal(got, want) || got == nil {
				t.Fatalf("mask %v k=%d (of %d groups): Top differs from the full sort", m, k, n)
			}
		}
		if got := e.All(m); !slices.Equal(got, ref) {
			t.Fatalf("mask %v: All differs from the full sort", m)
		}
	}
}

// topSink keeps BenchmarkEngineTop's calls from being optimized away.
var topSink []sketch.Entry[flowkey.FiveTuple]

// BenchmarkEngineTop is one top-10 miss per evaluation mask over a
// 512k-packet CAIDA-like epoch.
func BenchmarkEngineTop(b *testing.B) {
	e := NewEngine(decodedEpoch(1 << 19))
	for _, m := range flowkey.EvaluationMasks() {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				topSink = e.Top(m, 10)
			}
		})
	}
}
