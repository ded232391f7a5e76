package pcap

import (
	"bytes"
	"fmt"
	"io"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
)

// Queue is one receive queue of the simulated multi-queue NIC: a
// self-contained, replayable pcap stream holding the subset of a
// capture that receive-side scaling steered to this queue. Queues are
// produced by PartitionRSS and replayed independently — typically one
// reader goroutine per queue feeding one shard worker directly, which
// removes the single-reader bottleneck of whole-trace replay.
type Queue struct {
	data    []byte
	packets int
}

// Open returns a fresh Reader over the queue's stream. Each call
// replays from the beginning, so a queue can be replayed many times
// (benchmark loops, differential tests).
func (q *Queue) Open() (*Reader, error) { return NewReader(bytes.NewReader(q.data)) }

// Packets returns the number of records in the queue.
func (q *Queue) Packets() int { return q.packets }

// Bytes returns the encoded size of the queue's pcap stream.
func (q *Queue) Bytes() int { return len(q.data) }

// PartitionRSS splits an Ethernet pcap stream into queues receive
// queues, the way a NIC's receive-side scaling spreads flows across
// hardware queues: every record is steered by flowkey.RSSIndex over
// its decoded 5-tuple, so queue i holds exactly the packets of the
// capture whose key RSSIndex maps to i (for the same seed and queue
// count), in capture order. shard.ReplayQueues replays the queues,
// one goroutine each. Frames the decoder rejects (non-IP, truncated)
// steer to queue 0, where the replay counts and skips them. Timestamps are re-encoded at microsecond resolution (the
// classic-writer format); key extraction and replay order are
// unaffected.
//
// Partitioning is a one-time setup pass and allocates freely; only
// replay of the returned queues is on the zero-allocation path.
func PartitionRSS(r io.Reader, queues int, seed uint64) ([]*Queue, error) {
	if queues <= 0 {
		return nil, fmt.Errorf("pcap: PartitionRSS needs at least one queue, got %d", queues)
	}
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	if lt := pr.LinkType(); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: PartitionRSS supports only Ethernet captures, got link type %d", lt)
	}
	bufs := make([]*bytes.Buffer, queues)
	ws := make([]*Writer, queues)
	out := make([]*Queue, queues)
	for i := range ws {
		bufs[i] = &bytes.Buffer{}
		w, err := NewWriter(bufs[i], LinkTypeEthernet, pr.SnapLen())
		if err != nil {
			return nil, err
		}
		ws[i] = w
		out[i] = &Queue{}
	}
	for {
		hdr, data, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		q := 0
		if key, ok := packet.ExtractFiveTuple(data); ok {
			q = flowkey.RSSIndex(key, seed, queues)
		}
		if err := ws[q].WritePacket(hdr.Timestamp, data, hdr.OriginalLength); err != nil {
			return nil, err
		}
		out[q].packets++
	}
	for i, w := range ws {
		if err := w.Flush(); err != nil {
			return nil, err
		}
		out[i].data = bufs[i].Bytes()
	}
	return out, nil
}
