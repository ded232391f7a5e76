package main

import (
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/report"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/window"
)

// roundSpec is the stack the reporting workloads (ingest-min64,
// report-fanin) restart each round: agents reporting to one collector
// over loopback TCP, sealed into a query ring.
type roundSpec struct {
	cfg      core.Config // agent and collector geometry
	ringCfg  core.Config // geometry of the sealed epochs
	codec    report.Codec[flowkey.FiveTuple]
	agents   int
	conns    int
	ringSize int
	// epochs per round. Rounds restart the stack because the collector
	// keeps every epoch's shards for its lifetime: a round's state growth
	// shows in peak_heap_mb, but the run's memory does not depend on how
	// many epochs it got through.
	epochs int
}

// round is one round's collector, ring and agents.
type round struct {
	col    *collectorSide
	ring   *window.Ring
	agents []*netwide.Agent
	// codecs[a] is agent a's traced codec (nil when untraced).
	codecs []*tracedCodec
	conns  []net.Conn
	wrote  atomic.Uint64
	reg    *telemetry.Registry
}

// newRound starts a round and points qs at its ring; with a tracer it
// also installs the span wrappers and a telemetry registry for the layer
// counters.
func newRound(sp roundSpec, qs *queryServer, tr *Tracer) (*round, error) {
	f := &round{ring: window.NewRing(sp.ringSize, sp.ringCfg)}
	collector := netwide.NewCollector(sp.cfg)
	if tr != nil {
		f.reg = telemetry.New()
		collector.SetCodec(&tracedCodec{Codec: sp.codec, tr: tr}).SetTelemetry(f.reg)
		f.ring.SetTelemetry(f.reg)
	} else {
		collector.SetCodec(sp.codec)
	}
	for a := 0; a < sp.agents; a++ {
		ag := netwide.NewAgent(uint16(a), sp.cfg)
		if tr != nil {
			c := &tracedCodec{Codec: sp.codec, tr: tr}
			f.codecs = append(f.codecs, c)
			ag.SetCodec(c).SetTelemetry(f.reg)
		} else {
			f.codecs = append(f.codecs, nil)
			ag.SetCodec(sp.codec)
		}
		f.agents = append(f.agents, ag)
	}
	var err error
	if f.col, err = startCollector(collector); err != nil {
		return nil, err
	}
	for c := 0; c < sp.conns; c++ {
		conn, err := f.col.Dial()
		if err != nil {
			f.Close()
			return nil, err
		}
		f.conns = append(f.conns, countingConn{Conn: conn, written: &f.wrote})
	}
	qs.SetRing(f.ring)
	return f, nil
}

func (f *round) Close() {
	for _, c := range f.conns {
		c.Close()
	}
	f.col.Close()
}

// roundHooks are a workload's parts of the round loop (runRounds).
type roundHooks struct {
	// epoch runs epoch e of round f; g counts epochs across rounds and
	// picks the traffic.
	epoch func(f *round, e, g int) error
	// exact adds the exact counts of round-global epoch g to dst.
	exact func(dst map[flowkey.FiveTuple]uint64, g int)
}

// roundsResult is what runRounds measured beside the workload's own
// per-epoch samples.
type roundsResult struct {
	epochs, rounds int
	bytes          uint64
	f1, are        float64
}

// runRounds runs rounds until the deadline; every round runs at least
// until its ring is full. The first round always runs in full, and its
// heavy-hitter accuracy is the mean over its disjoint full-ring windows,
// each scored outside the timed epochs as soon as it is sealed: one
// window's F1 moves by a few percent from seed to seed, the mean of
// several less. With a tracer it leaves the last round open and returns
// it for the traced tail.
func runRounds(r *Run, sp roundSpec, qs *queryServer, tr *Tracer, deadline time.Time, h roundHooks) (roundsResult, *round, error) {
	var res roundsResult
	scored := 0
	g := 0
	for {
		f, err := newRound(sp, qs, tr)
		if err != nil {
			return res, nil, err
		}
		res.rounds++
		first := g == 0
		e := 0
		for ; e < sp.epochs && (first || e < sp.ringSize || time.Now().Before(deadline)); e, g = e+1, g+1 {
			if err := h.epoch(f, e, g); err != nil {
				f.Close()
				return res, nil, err
			}
			res.epochs++
			if first && (e+1)%sp.ringSize == 0 {
				// Accuracy over the ring's newest window against exact
				// counts of the epochs it holds.
				rg := f.ring.LastN(sp.ringSize)
				exact := make(map[flowkey.FiveTuple]uint64)
				for ep := rg.From; ep < rg.To; ep++ {
					h.exact(exact, g-e+int(ep))
				}
				f1, are, err := hhScores(f.ring, rg, exact)
				r.Check(err == nil, "heavy hitters: %v", err)
				res.f1 += f1
				res.are += are
				scored++
			}
		}
		if first {
			res.f1 /= float64(scored)
			res.are /= float64(scored)
		}
		res.bytes += f.wrote.Load()
		done := !time.Now().Before(deadline)
		if done && tr != nil {
			return res, f, nil
		}
		f.Close()
		if done {
			return res, nil, nil
		}
	}
}

// tracedTail finishes a traced phase on its last round: isolated
// FoldShards/Merge/Decode over the ring's epochs and an isolated replay of
// every evaluation mask over the whole ring, then the report- and
// query-plane metrics. It closes the round.
func tracedTail(r *Run, tr *Tracer, f *round, ringSize int) {
	rg := f.ring.LastN(ringSize)
	var epochs []uint32
	for e := rg.From; e < rg.To; e++ {
		epochs = append(epochs, uint32(e))
	}
	isolatedMergeDecode(tr, f.col.Collector, epochs)
	var ops []queryOp
	for _, m := range flowkey.EvaluationMasks() {
		ops = append(ops, queryOp{mask: m, spec: "last:" + strconv.Itoa(ringSize), limit: 10})
	}
	isolatedQueries(tr, f.ring, ops)
	snap := f.reg.Snapshot()
	f.Close()
	setReportPlane(r, tr, snap)
	setQueryPlane(r, tr, snap)
}

// isolatedMergeDecode times FoldShards, Basic.Merge and Basic.Decode on
// the shards a collector retained for the given epochs.
func isolatedMergeDecode(tr *Tracer, c *netwide.Collector, epochs []uint32) {
	var prev *core.Basic[flowkey.FiveTuple]
	for _, e := range epochs {
		shards, ok := c.EpochShards(e)
		if !ok {
			continue
		}
		sp := tr.Start("netwide.fold", Span{}, uint64(e))
		agg := netwide.FoldShards(shards)
		tr.End(sp, uint64(len(shards)))
		sp = tr.Start("core.decode", Span{}, uint64(e))
		agg.Decode()
		tr.End(sp, 1)
		if prev != nil {
			into := prev.Clone()
			sp = tr.Start("core.merge", Span{}, uint64(e))
			err := into.Merge(agg)
			tr.End(sp, 1)
			_ = err // epochs of one collector share a geometry
		}
		prev = agg
	}
}

// setReportPlane sets the report, netwide, core merge/decode and
// window.seal metrics from a traced phase's spans and counters.
func setReportPlane(r *Run, tr *Tracer, snap telemetry.Snapshot) {
	r.Set("core.merge_ns", tr.PerCallNs("core.merge"), "ns")
	r.Set("core.decode_ns", tr.PerCallNs("core.decode"), "ns")
	r.Set("report.seal_ns", tr.PerCallNs("report.seal"), "ns")
	r.Set("report.encode_ns", tr.PerCallNs("report.encode"), "ns")
	r.Set("report.decode_ns", tr.PerCallNs("report.decode"), "ns")
	if b := snap.Counters["netwide.report_bytes"]; b > 0 {
		r.Set("report.compression_ratio", float64(snap.Counters["netwide.report_raw_bytes"])/float64(b), "1")
	}
	r.Set("netwide.report_ns", tr.PerCallNs("netwide.report"), "ns")
	r.Set("netwide.ack_wait_ns", tr.SelfPerCallNs("netwide.report"), "ns")
	r.Set("netwide.seal_epoch_ns", tr.PerCallNs("netwide.seal_epoch"), "ns")
	r.Set("netwide.fold_ns", tr.PerCallNs("netwide.fold"), "ns")
	r.Set("netwide.dup_reports", float64(snap.Counters["netwide.dup_reports"]), "count")
	r.Set("netwide.decode_failures", float64(snap.Counters["netwide.decode_failures"]), "count")
	r.Set("window.seal_ns", tr.PerCallNs("window.seal"), "ns")
}
