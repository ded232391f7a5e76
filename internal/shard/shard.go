// Package shard provides multi-core ingest: N simulated receive
// queues, each replayed by one goroutine into a private CocoSketch,
// with decode-time merging (core.Merge) folding the per-queue sketches
// back into one so queries see the whole stream — the paper's OVS
// scaling architecture (§6.1: one sketch per dataplane thread, merged
// at decode).
//
//	pcap stream ──PartitionRSS──▶ queue 0 … queue N-1   (setup, untimed)
//	queue i (1 goroutine): read view → ExtractFiveTuple → InsertBatch
//	                       into a private core.Basic
//	end of stream: merge the N queue sketches into one (core.Merge)
//
// Determinism: every queue replays its records in capture order, and
// the RSS split (flowkey.RSSIndex) is a pure function of the key and
// the seed, so each queue sketch — and the merged result — is a pure
// function of the capture, the seed and the queue count. With one
// queue the replay reproduces the sequential sketch bit for bit
// (tested in replay_test.go).
package shard

import (
	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/telemetry"
)

// Sketch is the contract a per-queue sketch must satisfy: batched
// inserts for the replay loop, point queries and full decode for the
// control plane, and Merge so N queue sketches fold into one at
// decode time. Both core variants satisfy it (S is the sketch's own
// pointer type, e.g. *core.Basic[flowkey.FiveTuple]).
type Sketch[S any] interface {
	InsertBatch(keys []flowkey.FiveTuple, ws []uint64)
	InsertBatchUnit(keys []flowkey.FiveTuple)
	Query(key flowkey.FiveTuple) uint64
	Decode() map[flowkey.FiveTuple]uint64
	SumValues() uint64
	Merge(other S) error
}

// DefaultBurst is the replay burst: 64 packets, the repository-wide
// DPDK-style rx_burst size.
const DefaultBurst = 64

// rngSalt decorrelates per-queue replacement draws; index 0 maps to
// zero so queue 0 keeps the sequential RNG sequence.
func rngSalt(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 }

// NewBasicFactory returns the per-queue sketch constructor that
// ReplayPCAPBasic uses: queue 0 keeps the sequential sketch state,
// queues > 0 get decorrelated replacement RNGs, and all queues flush
// update outcomes into one shared "core."-prefixed telemetry group
// (no-op on a nil registry). Sharing one core.Config keeps the queue
// sketches merge-compatible. Exported so external replay drivers
// (experiments, benchmarks) build sketch sets that merge
// bit-identically with ReplayPCAPBasic's.
func NewBasicFactory(sketchCfg core.Config, reg *telemetry.Registry) func(i int) *core.Basic[flowkey.FiveTuple] {
	m := telemetry.NewSketchMetrics(reg, "core")
	return func(i int) *core.Basic[flowkey.FiveTuple] {
		s := core.NewBasic[flowkey.FiveTuple](sketchCfg)
		if i > 0 {
			s.Reseed(sketchCfg.Seed ^ rngSalt(i))
		}
		return s.SetTelemetry(m)
	}
}
