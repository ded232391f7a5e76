package oracle

import (
	"bytes"
	"time"

	"cocosketch/internal/baselines/countmin"
	"cocosketch/internal/baselines/countsketch"
	"cocosketch/internal/baselines/elastic"
	"cocosketch/internal/baselines/rhhh"
	"cocosketch/internal/baselines/spacesaving"
	"cocosketch/internal/baselines/univmon"
	"cocosketch/internal/baselines/uss"
	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/shard"
)

// Adapters binding every implementation in the repository to the
// harness Instance interface, each with explicit geometry (so variance
// bounds are computed from known widths, not reverse-engineered from a
// memory budget) and the contract its algorithm actually publishes.

// Harness geometry. Sized so that at ~20k packets the heavy-hitter CIs
// are ≈10–15% of truth: tight enough that the injected-bias negative
// control fails, loose enough that honest implementations pass at
// z = DefaultZ on every seed.
const (
	harnessArrays  = 2    // CocoSketch d
	harnessBuckets = 512  // CocoSketch l (per array)
	harnessRows    = 3    // CM / CS / UnivMon rows
	harnessWidth   = 2048 // CM / CS width
	harnessHeapCap = 512  // CM / CS heap entries
	umLevels       = 4    // UnivMon levels
	umWidth        = 1024 // UnivMon per-level width
	umHeapCap      = 256  // UnivMon per-level heap entries
	elasticHeavy   = 512  // Elastic heavy-part buckets
	elasticLight   = 8192 // Elastic light-part uint8 counters
	ssCounters     = 512  // SpaceSaving counters
	ussBuckets     = 512  // USS buckets
	rhhhLevelBytes = 12288
	rhhhLevelCap   = rhhhLevelBytes / 48 // SpaceSaving n per R-HHH level
	heavyFraction  = 0.01                // heap-impl per-key check floor
	batchLen       = 256                 // batched-path buffer length
	shardWorkers   = 4
)

// funcInstance adapts three closures to the Instance interface.
type funcInstance struct {
	insert func(k flowkey.FiveTuple, w uint64)
	close  func()
	table  func() map[flowkey.FiveTuple]uint64
}

// Insert implements Instance.
func (f *funcInstance) Insert(k flowkey.FiveTuple, w uint64) { f.insert(k, w) }

// Close implements Instance.
func (f *funcInstance) Close() {
	if f.close != nil {
		f.close()
	}
}

// Table implements Instance.
func (f *funcInstance) Table() map[flowkey.FiveTuple]uint64 { return f.table() }

// cocoCfg is the shared CocoSketch geometry for one trial seed.
func cocoCfg(seed uint64) core.Config {
	return core.Config{Arrays: harnessArrays, BucketsPerArray: harnessBuckets, Seed: seed}
}

// cocoVar is Theorem 2 / Lemma 5 restated for the harness geometry:
// subset-sum variance ceiling f·V/l (see SubsetVarianceBound).
func cocoVar(o *Oracle, _ flowkey.Mask, f uint64) float64 {
	return SubsetVarianceBound(f, o.Total(), harnessBuckets)
}

// cocoContract is the guarantee set of Theorems 1–2: unbiased for every
// partial key simultaneously, variance bounded by f·V/l.
func cocoContract(conservesMass bool) Contract {
	return Contract{
		Unbiased:      true,
		VarBound:      cocoVar,
		VarCeiling:    cocoVar,
		ConservesMass: conservesMass,
	}
}

// csVar is the Count-Sketch guarantee Var ≤ F2/width per row, with a
// factor 2 covering the heap's conditioning of which estimates are
// decoded (the heap stores the estimate observed at insertion time,
// not an independent draw).
func csVar(width int) VarBoundFunc {
	return func(o *Oracle, m flowkey.Mask, _ uint64) float64 {
		return 2 * CountSketchVarianceBound(o.F2(m), width)
	}
}

// CocoBasicImpl is the paper's §4.1 single-pipeline variant.
func CocoBasicImpl() Impl {
	return Impl{
		Name: "coco-basic",
		New: func(seed uint64) Instance {
			s := core.NewBasic[flowkey.FiveTuple](cocoCfg(seed))
			return &funcInstance{insert: s.Insert, table: func() map[flowkey.FiveTuple]uint64 { return s.Decode() }}
		},
		Contract: cocoContract(true),
	}
}

// CocoHardwareImpl is the paper's §4.2 multi-array variant (d
// independent arrays, cross-array median at query). With d = 2 the
// median is the mean of two per-array unbiased estimators, so the
// unbiasedness contract applies; Decode does not conserve mass (each
// array holds a full copy of V).
func CocoHardwareImpl() Impl {
	return Impl{
		Name: "coco-hw",
		New: func(seed uint64) Instance {
			s := core.NewHardware[flowkey.FiveTuple](cocoCfg(seed))
			return &funcInstance{insert: s.Insert, table: func() map[flowkey.FiveTuple]uint64 { return s.Decode() }}
		},
		Contract: cocoContract(false),
	}
}

// CocoBatchedImpl drives the basic variant through InsertBatchUnit in
// batchLen chunks — the PR-1 hot path. Its decode is bit-identical to
// sequential insertion, so it inherits the full basic contract.
func CocoBatchedImpl() Impl {
	return Impl{
		Name: "coco-batched",
		New: func(seed uint64) Instance {
			s := core.NewBasic[flowkey.FiveTuple](cocoCfg(seed))
			buf := make([]flowkey.FiveTuple, 0, batchLen)
			flush := func() {
				if len(buf) > 0 {
					s.InsertBatchUnit(buf)
					buf = buf[:0]
				}
			}
			return &funcInstance{
				insert: func(k flowkey.FiveTuple, w uint64) {
					if w != 1 {
						flush()
						s.Insert(k, w)
						return
					}
					buf = append(buf, k)
					if len(buf) == batchLen {
						flush()
					}
				},
				close: flush,
				table: func() map[flowkey.FiveTuple]uint64 { return s.Decode() },
			}
		},
		Contract: cocoContract(true),
	}
}

// CocoShardedImpl drives the multi-queue ingest path: each key is
// encoded as an Ethernet frame into an in-memory capture, which
// pcap.PartitionRSS splits across shardWorkers receive queues and
// shard.ReplayQueues replays into per-queue basic sketches merged at
// decode. Merging conserves mass and preserves unbiasedness (each
// shard is an independent unbiased sketch of a disjoint substream; the
// merge collapse rule is the same stochastic argument as insertion).
func CocoShardedImpl() Impl {
	return Impl{
		Name: "coco-sharded",
		New: func(seed uint64) Instance {
			var capture bytes.Buffer
			w, err := pcap.NewWriter(&capture, pcap.LinkTypeEthernet, 64)
			if err != nil {
				panic(err)
			}
			var frame []byte
			var table map[flowkey.FiveTuple]uint64
			return &funcInstance{
				insert: func(k flowkey.FiveTuple, _ uint64) {
					frame = packet.AppendBuild(frame[:0], k, packet.BuildOptions{})
					if err := w.WritePacket(time.Unix(0, 0), frame, len(frame)); err != nil {
						panic(err)
					}
				},
				close: func() {
					if err := w.Flush(); err != nil {
						panic(err)
					}
					qs, err := pcap.PartitionRSS(&capture, shardWorkers, seed)
					if err != nil {
						panic(err)
					}
					s, _, err := shard.ReplayQueues(shard.ReplayConfig{}, shard.NewBasicFactory(cocoCfg(seed), nil), qs)
					if err != nil {
						panic(err)
					}
					table = s.Decode()
				},
				table: func() map[flowkey.FiveTuple]uint64 { return table },
			}
		},
		Contract: cocoContract(true),
	}
}

// USSImpl is Unbiased SpaceSaving (the accelerated variant) —
// CocoSketch's single-key ancestor: unbiased for every partial key,
// variance bounded with l = its bucket count.
func USSImpl() Impl {
	return Impl{
		Name: "uss",
		New: func(seed uint64) Instance {
			s := uss.NewAccelerated[flowkey.FiveTuple](ussBuckets, seed)
			return &funcInstance{insert: s.Insert, table: func() map[flowkey.FiveTuple]uint64 { return s.Decode() }}
		},
		Contract: Contract{
			Unbiased: true,
			VarBound: func(o *Oracle, _ flowkey.Mask, f uint64) float64 {
				return SubsetVarianceBound(f, o.Total(), ussBuckets)
			},
			ConservesMass: true,
		},
	}
}

// SpaceSavingImpl asserts the deterministic SpaceSaving guarantees:
// decoded counters never underestimate, Σ counters = V exactly, and
// every flow larger than V/n is tracked.
func SpaceSavingImpl() Impl {
	return Impl{
		Name: "spacesaving",
		New: func(seed uint64) Instance {
			s := spacesaving.New[flowkey.FiveTuple](ssCounters, seed)
			return &funcInstance{insert: s.Insert, table: func() map[flowkey.FiveTuple]uint64 { return s.Decode() }}
		},
		Masks: []flowkey.Mask{flowkey.MaskAll()},
		Contract: Contract{
			NeverUnder:    true,
			ConservesMass: true,
			GuaranteedTracking: func(o *Oracle) uint64 {
				return o.Total()/ssCounters + 1
			},
		},
	}
}

// CountMinImpl asserts CM-Heap's one-sided error: never underestimates,
// and the expected overestimate of a tracked key is at most one row's
// expected collision mass (V−f)/width.
func CountMinImpl() Impl {
	return Impl{
		Name: "cm-heap",
		New: func(seed uint64) Instance {
			s := countmin.New[flowkey.FiveTuple](harnessRows, harnessWidth, harnessHeapCap, seed)
			return &funcInstance{insert: s.Insert, table: func() map[flowkey.FiveTuple]uint64 { return s.Decode() }}
		},
		Masks: []flowkey.Mask{flowkey.MaskAll()},
		Contract: Contract{
			NeverUnder: true,
			MeanOverBound: func(o *Oracle, _ flowkey.Mask, f uint64) float64 {
				return float64(o.Total()-f) / float64(harnessWidth)
			},
			TrackTop:           3,
			MinTrackedFraction: heavyFraction,
		},
	}
}

// CountSketchImpl asserts C-Heap's unbiasedness for tracked heavy
// hitters with the F2/width variance guarantee. Full key only: the
// heap's decode drops the tail, so partial sums are incomplete by
// design (the paper's core argument for CocoSketch).
func CountSketchImpl() Impl {
	return Impl{
		Name: "cs-heap",
		New: func(seed uint64) Instance {
			s := countsketch.New[flowkey.FiveTuple](harnessRows, harnessWidth, harnessHeapCap, seed)
			return &funcInstance{insert: s.Insert, table: func() map[flowkey.FiveTuple]uint64 { return s.Decode() }}
		},
		Masks: []flowkey.Mask{flowkey.MaskAll()},
		Contract: Contract{
			Unbiased:           true,
			VarBound:           csVar(harnessWidth),
			VarCeiling:         csVar(harnessWidth),
			TrackTop:           3,
			MinTrackedFraction: heavyFraction,
		},
	}
}

// UnivMonImpl asserts the level-0 Count-Sketch contract of UnivMon's
// decode (heavy hitters come from level 0; deeper levels only feed
// moment estimation).
func UnivMonImpl() Impl {
	return Impl{
		Name: "univmon",
		New: func(seed uint64) Instance {
			s := univmon.New[flowkey.FiveTuple](umLevels, harnessRows, umWidth, umHeapCap, seed)
			return &funcInstance{insert: s.Insert, table: func() map[flowkey.FiveTuple]uint64 { return s.Decode() }}
		},
		Masks: []flowkey.Mask{flowkey.MaskAll()},
		Contract: Contract{
			Unbiased:           true,
			VarBound:           csVar(umWidth),
			VarCeiling:         csVar(umWidth),
			TrackTop:           3,
			MinTrackedFraction: heavyFraction,
		},
	}
}

// ElasticImpl asserts a two-sided band for tracked heavy hitters: the
// light part can add at most its expected per-counter collision mass
// (V/lightCounters, an 8-bit CM row) and the heavy part can lose at
// most one average bucket's worth of pre-claim mass to the light part
// (V/heavyBuckets) before the vote rule installs the flow.
func ElasticImpl() Impl {
	return Impl{
		Name: "elastic",
		New: func(seed uint64) Instance {
			s := elastic.New[flowkey.FiveTuple](elasticHeavy, elasticLight, seed)
			return &funcInstance{insert: s.Insert, table: func() map[flowkey.FiveTuple]uint64 { return s.Decode() }}
		},
		Masks: []flowkey.Mask{flowkey.MaskAll()},
		Contract: Contract{
			Unbiased: true, // within the allowances below
			OverAllowance: func(o *Oracle, _ flowkey.Mask, _ uint64) float64 {
				return float64(o.Total()) / float64(elasticLight)
			},
			UnderAllowance: func(o *Oracle, _ flowkey.Mask, _ uint64) float64 {
				return float64(o.Total()) / float64(elasticHeavy)
			},
			TrackTop:           3,
			MinTrackedFraction: heavyFraction,
		},
	}
}

// RHHHImpl asserts randomized-HHH's sampling contract at the full-IPv4
// level of the source hierarchy: estimates are unbiased with the
// binomial sampling variance f·(L−1) (factor 2 covers the per-level
// SpaceSaving summary's own noise) plus a one-sided overestimate of at
// most the level summary's min-counter bound, V/n per level after ×L
// scaling.
func RHHHImpl() Impl {
	srcMask := flowkey.MaskFields(flowkey.FieldSrcIP)
	return Impl{
		Name: "rhhh",
		New: func(seed uint64) Instance {
			s := rhhh.NewOneD(rhhh.Levels1D*rhhhLevelBytes, seed)
			return &funcInstance{
				insert: func(k flowkey.FiveTuple, w uint64) { s.Insert(flowkey.IPv4(k.SrcIP), w) },
				table: func() map[flowkey.FiveTuple]uint64 {
					out := make(map[flowkey.FiveTuple]uint64)
					for ip, v := range s.Level(32) {
						out[flowkey.FiveTuple{SrcIP: [4]byte(ip)}] += v
					}
					return out
				},
			}
		},
		Masks: []flowkey.Mask{srcMask},
		Contract: Contract{
			Unbiased: true,
			VarBound: func(_ *Oracle, _ flowkey.Mask, f uint64) float64 {
				return 2 * SamplingVarianceBound(f, rhhh.Levels1D)
			},
			OverAllowance: func(o *Oracle, _ flowkey.Mask, _ uint64) float64 {
				return float64(o.Total()) / float64(rhhhLevelCap)
			},
			TrackTop:           3,
			MinTrackedFraction: heavyFraction,
		},
	}
}

// AllImpls returns the full differential matrix roster: the two
// CocoSketch variants, the batched and sharded paths, and all seven
// baselines.
func AllImpls() []Impl {
	return []Impl{
		CocoBasicImpl(),
		CocoHardwareImpl(),
		CocoBatchedImpl(),
		CocoShardedImpl(),
		USSImpl(),
		SpaceSavingImpl(),
		CountMinImpl(),
		CountSketchImpl(),
		UnivMonImpl(),
		ElasticImpl(),
		RHHHImpl(),
	}
}
