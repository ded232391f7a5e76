package flowkey

// rssSeedMix decorrelates the receive-side-scaling hash from the
// sketch hash seeds, so the split across queues is independent of
// bucket placement inside any one sketch.
const rssSeedMix = 0x5bd1e995

// RSSIndex maps a key to one of n receive queues, the way a NIC's
// receive-side scaling spreads flows across hardware queues: one
// Bob32 hash of the canonical encoding under a seed derived from the
// caller's seed, range-reduced by multiply-shift. It is the single
// definition of the split: the simulated multi-queue pcap replay
// (pcap.PartitionRSS) and the OVS pipeline (ovs.Run) both steer with
// it, and the sequential N-shard references of the bit-identical
// multi-queue replay tests split their keys with it.
//
// All packets of a flow map to one queue (the hash sees only the key),
// and n == 1 always returns 0. The call performs no allocation.
func RSSIndex(k FiveTuple, seed uint64, n int) int {
	if n <= 1 {
		return 0
	}
	var seeds, out [1]uint32
	seeds[0] = uint32(seed) ^ rssSeedMix
	k.HashSeeds(seeds[:], out[:])
	return int(uint64(out[0]) * uint64(n) >> 32)
}
