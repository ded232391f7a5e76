package shard_test

import (
	"bytes"
	"fmt"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
)

// Example replays a capture through four simulated receive queues and
// decodes the merged full-key table. The merged counter mass equals
// the packet count — the RSS split, the per-queue replay and the
// decode-time merge are lossless.
func Example() {
	tr := trace.CAIDALike(100_000, 1)
	var capture bytes.Buffer
	if err := tr.WritePCAP(&capture, 64); err != nil {
		panic(err)
	}

	sketchCfg := core.ConfigForMemory[flowkey.FiveTuple](core.DefaultArrays, 500<<10, 1)
	merged, st, err := shard.ReplayPCAPBasic(shard.ReplayConfig{Queues: 4, Seed: 1}, sketchCfg, &capture)
	if err != nil {
		panic(err)
	}
	fmt.Println("queues:", st.Queues)
	fmt.Println("mass equals packets:", merged.SumValues() == uint64(len(tr.Packets)))
	// Output:
	// queues: 4
	// mass equals packets: true
}
