package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/report"
	"cocosketch/internal/shard"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
)

// ingest-min64: long epochs of minimum-size frames, each replayed
// through shard.ReplayQueues with one queue, absorbed into one agent,
// reported with the full codec over one connection, sealed into the
// ring and probed once through /query.
const (
	ingestEpochPackets = 1 << 19
	// ingestCaptures distinct epoch captures alternate, so consecutive
	// epochs differ while each keeps a precomputed reference decode.
	ingestCaptures = 2
	ingestWindow   = 8
	// ingestRoundEpochs epochs make one round (see roundSpec.epochs).
	ingestRoundEpochs = 16
	// minFrameLen is the captured length of a 64-byte Ethernet frame
	// (the 4-byte FCS is not captured).
	minFrameLen = 60
	// A run sets up at least setupRepeats times and until setupBudget
	// has passed, at most setupMaxRepeats times; setup_s is the median.
	setupRepeats    = 5
	setupMaxRepeats = 15
)

type ingestInputs struct {
	cfg    core.Config
	queues []*pcap.Queue
	exact  []map[flowkey.FiveTuple]uint64
	// ref is the decode of a sequential core.Basic fed each capture's
	// keys: a one-queue replay must reproduce it bit for bit.
	ref []map[flowkey.FiveTuple]uint64
}

// minFramePCAP encodes tr as a pcap of 64-byte frames: each packet's
// headers, zero-padded to the Ethernet minimum.
func minFramePCAP(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(24 + len(tr.Packets)*(16+minFrameLen))
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet, minFrameLen)
	if err != nil {
		return nil, err
	}
	base := time.Unix(1600000000, 0)
	frame := make([]byte, 0, 128)
	for i := range tr.Packets {
		p := &tr.Packets[i]
		frame = packet.AppendBuild(frame[:0], p.Key, packet.BuildOptions{})
		for len(frame) < minFrameLen {
			frame = append(frame, 0)
		}
		if err := w.WritePacket(base.Add(p.TS), frame, len(frame)); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func buildIngestInputs(r *Run) (*ingestInputs, error) {
	in := &ingestInputs{cfg: defaultConfig()}
	n := r.Scaled(ingestEpochPackets, 4096)
	for i := 0; i < ingestCaptures; i++ {
		tr := trace.CAIDALike(n, r.Opt.Seed*1000+uint64(i))
		data, err := minFramePCAP(tr)
		if err != nil {
			return nil, fmt.Errorf("build capture: %w", err)
		}
		qs, err := pcap.PartitionRSS(bytes.NewReader(data), 1, 0)
		if err != nil {
			return nil, fmt.Errorf("build queue: %w", err)
		}
		keys := make([]flowkey.FiveTuple, len(tr.Packets))
		for j := range tr.Packets {
			keys[j] = tr.Packets[j].Key
		}
		seq := shard.NewBasicFactory(in.cfg, nil)(0)
		seq.InsertBatchUnit(keys)
		in.queues = append(in.queues, qs[0])
		in.exact = append(in.exact, tr.FullCounts())
		in.ref = append(in.ref, seq.Decode())
	}
	return in, nil
}

// ingestSpec is one round's stack: a collector and query ring behind
// loopback TCP, and one agent reporting with the full codec over one
// connection.
func ingestSpec(cfg core.Config) roundSpec {
	return roundSpec{
		cfg: cfg, ringCfg: cfg, codec: report.Full[flowkey.FiveTuple](flowkey.FiveTupleFromBytes),
		agents: 1, conns: 1, ringSize: ingestWindow, epochs: ingestRoundEpochs,
	}
}

// ingestPhase holds one phase's per-epoch samples.
type ingestPhase struct {
	roundsResult
	mpps, cpuNsPerPkt, cycleMs []float64
	visibleMs, queryMs, lagMs  []float64
	starved                    uint64
	replayWall, replayCPU      time.Duration
}

// runIngestPhase runs rounds until the deadline. With a tracer it leaves
// the last round open and returns it for the traced tail.
func runIngestPhase(r *Run, in *ingestInputs, qs *queryServer, tr *Tracer, deadline time.Time) (*ingestPhase, *round, error) {
	ph := &ingestPhase{}
	qs.SetTracer(tr)
	factory := shard.NewBasicFactory(in.cfg, nil)
	masks := flowkey.EvaluationMasks()
	client := newQueryClient(qs.URL)
	defer client.Close()
	res, f, err := runRounds(r, ingestSpec(in.cfg), qs, tr, deadline, roundHooks{
		epoch: func(f *round, _, g int) error {
			return ingestEpoch(r, in, f, ph, factory, client, tr, masks[g%len(masks)], g)
		},
		exact: func(dst map[flowkey.FiveTuple]uint64, g int) { addCounts(dst, in.exact[g%ingestCaptures]) },
	})
	ph.roundsResult = res
	return ph, f, err
}

// ingestEpoch runs one long epoch: replay, then the visibility path
// (absorb, report, seal, /query), then the untimed correctness checks.
func ingestEpoch(r *Run, in *ingestInputs, f *round, ph *ingestPhase,
	factory func(int) *core.Basic[flowkey.FiveTuple], client *queryClient, tr *Tracer, m flowkey.Mask, g int) error {
	i := g % ingestCaptures
	agent := f.agents[0]
	epoch := agent.Epoch()

	cpu0, t0 := cpuTime(), time.Now()
	sp := tr.Start("shard.replay", Span{}, uint64(epoch))
	sk, st, err := shard.ReplayQueues(shard.ReplayConfig{Queues: 1}, factory, in.queues[i:i+1])
	tr.End(sp, st.Packets)
	t1, cpu1 := time.Now(), cpuTime()
	r.Op(err)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	// Visibility path: from the end of ingest until a /query that
	// includes the epoch succeeds.
	sp = tr.Start("netwide.absorb", Span{}, uint64(epoch))
	err = agent.Absorb(sk)
	tr.End(sp, 1)
	if err == nil {
		err = agentReport(tr, agent, f.codecs[0], f.conns[0])
	}
	r.Op(err)
	if err != nil {
		return fmt.Errorf("report epoch %d: %w", epoch, err)
	}
	if err := sealEpoch(tr, f.col.Collector, f.ring, epoch); err != nil {
		r.Op(err)
		return fmt.Errorf("seal epoch %d: %w", epoch, err)
	}
	due := time.Now()
	qr, sent, done, err := probeIncludes(r, client, tr, m, uint64(epoch), uint64(g))
	if err != nil {
		return err
	}

	ph.starved += st.Starved
	ph.replayWall += t1.Sub(t0)
	ph.replayCPU += cpu1 - cpu0
	ph.mpps = append(ph.mpps, float64(st.Packets)/t1.Sub(t0).Seconds()/1e6)
	ph.cpuNsPerPkt = append(ph.cpuNsPerPkt, float64(cpu1-cpu0)/float64(st.Packets))
	ph.visibleMs = append(ph.visibleMs, ms(done.Sub(t1)))
	ph.queryMs = append(ph.queryMs, ms(done.Sub(sent)))
	ph.lagMs = append(ph.lagMs, ms(sent.Sub(due)))
	ph.cycleMs = append(ph.cycleMs, ms(done.Sub(t0)))

	// Correctness, outside the timed sections: the one-queue replay
	// decodes bit-identically to the sequential sketch, and the sealed
	// epoch holds exactly the packets replayed.
	dec := sk.Decode()
	if r.Opt.Corrupt {
		corruptTable(dec)
	}
	r.Check(sameTable(dec, in.ref[i]), "epoch %d: replay decode differs from the sequential sketch", epoch)
	sealed := f.ring.Sealed()
	mass := tableMass(sealed[len(sealed)-1].Table)
	if r.Opt.Corrupt {
		mass++
	}
	r.Check(mass == st.Packets && st.Skipped == 0, "epoch %d: sealed mass %d, replayed %d packets (%d skipped)",
		epoch, mass, st.Packets, st.Skipped)
	r.Check(qr.To == uint64(epoch)+1, "epoch %d: /query answered through %d", epoch, qr.To)
	return nil
}

// probeIncludes issues /query for mask m over the newest epoch until the
// answer includes epoch (the first try normally does, since sealing is
// synchronous), returning the response and when the successful request
// was sent and answered.
func probeIncludes(r *Run, c *queryClient, tr *Tracer, m flowkey.Mask, epoch, reqID uint64) (window.QueryResponse, time.Time, time.Time, error) {
	u := c.queryURL(m, "last:1", 10)
	for try := 0; ; try++ {
		sent := time.Now()
		sp := tr.Start("http.client", Span{}, reqID)
		body, err := c.Get(u, reqID)
		tr.End(sp, 1)
		done := time.Now()
		r.Op(err)
		if err != nil {
			return window.QueryResponse{}, sent, done, err
		}
		qr, err := decodeQuery(body)
		if err != nil {
			r.Op(err)
			return qr, sent, done, err
		}
		if qr.To > epoch || try == 100 {
			return qr, sent, done, nil
		}
	}
}

// isolatedIngest replays one capture on a single goroutine, one span per
// 64-packet burst and stage: pcap Reader.ReadInto, ExtractFiveTuple,
// FiveTuple.HashSeeds at the sketch's d, and Basic.InsertBatchUnit.
// InsertBatchUnit hashes internally, so its self time is its span minus
// the hash span over the same keys. A second, untraced insert pass
// counts heap allocations per packet.
func isolatedIngest(tr *Tracer, q *pcap.Queue, cfg core.Config) (skipped uint64, allocsPerPkt float64, err error) {
	rd, err := q.Open()
	if err != nil {
		return 0, 0, err
	}
	const burst = shard.DefaultBurst
	bufs := make([][]byte, burst)
	for i := range bufs {
		bufs[i] = make([]byte, shard.DefaultSlotCap)
	}
	lens := make([]int, burst)
	keys := make([]flowkey.FiveTuple, 0, burst)
	all := make([]flowkey.FiveTuple, 0, q.Packets())
	seeds := make([]uint32, cfg.Arrays)
	for i := range seeds {
		seeds[i] = uint32(i)*0x9e3779b9 + 1
	}
	hs := make([]uint32, cfg.Arrays)
	sk := core.NewBasic[flowkey.FiveTuple](cfg)
	for eof := false; !eof; {
		sp := tr.Start("pcap.read", Span{}, 0)
		n := 0
		for ; n < burst; n++ {
			_, l, err := rd.ReadInto(bufs[n])
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return 0, 0, err
			}
			lens[n] = l
		}
		tr.End(sp, uint64(n))
		if n == 0 {
			break
		}
		sp = tr.Start("packet.extract", Span{}, 0)
		keys = keys[:0]
		for j := 0; j < n; j++ {
			k, ok := packet.ExtractFiveTuple(bufs[j][:lens[j]])
			if !ok {
				skipped++
				continue
			}
			keys = append(keys, k)
		}
		tr.End(sp, uint64(n))
		sp = tr.Start("flowkey.hash", Span{}, 0)
		for _, k := range keys {
			k.HashSeeds(seeds, hs)
		}
		tr.End(sp, uint64(len(keys)))
		sp = tr.Start("core.insert", Span{}, 0)
		sk.InsertBatchUnit(keys)
		tr.End(sp, uint64(len(keys)))
		all = append(all, keys...)
	}

	fresh := core.NewBasic[flowkey.FiveTuple](cfg)
	a0 := heapAllocs()
	for off := 0; off < len(all); off += burst {
		fresh.InsertBatchUnit(all[off:min(off+burst, len(all))])
	}
	a1 := heapAllocs()
	if len(all) > 0 {
		allocsPerPkt = float64(a1-a0) / float64(len(all))
	}
	return skipped, allocsPerPkt, nil
}

func runIngest(r *Run) error {
	type built struct {
		in *ingestInputs
		qs *queryServer
		f  *round
	}
	b, err := timedSetup(r, func() (built, error) {
		in, err := buildIngestInputs(r)
		if err != nil {
			return built{}, err
		}
		qs, err := startQueryServer(window.NewRing(ingestWindow, in.cfg))
		if err != nil {
			return built{}, err
		}
		// One round's stack, so setup includes what a round starts.
		f, err := newRound(ingestSpec(in.cfg), qs, nil)
		if err != nil {
			qs.Close()
			return built{}, err
		}
		return built{in, qs, f}, nil
	}, func(b built) { b.f.Close(); b.qs.Close() })
	if err != nil {
		return err
	}
	b.f.Close()
	in, qs := b.in, b.qs
	defer qs.Close()

	share := 1.0
	if r.Opt.Trace {
		share = 0.5
	}
	heap := startHeapSampler()
	ph, _, err := runIngestPhase(r, in, qs, nil, r.Deadline(share))
	peak := heap.Stop()
	if err != nil {
		return err
	}

	r.Set("throughput_per_s", median(ph.mpps)*1e6, "1/s")
	r.Set("cpu_us_per_op", median(ph.cpuNsPerPkt)/1e3, "us")
	r.Set("visible_ms_p50", median(ph.visibleMs), "ms")
	r.Set("query_ms_p50", median(ph.queryMs), "ms")
	r.Set("peak_heap_mb", peak, "MiB")
	r.Set("hh_f1", ph.f1, "1")
	r.Set("hh_are", ph.are, "1")
	r.Set("ingest_mpps", median(ph.mpps), "Mpps")
	r.Set("ingest_cpu_ns_per_pkt", median(ph.cpuNsPerPkt), "ns")
	r.Set("report_bytes_per_epoch", float64(ph.bytes)/float64(ph.epochs), "B")
	setTail(r, "visible_ms_p99", ph.visibleMs)
	r.Note("%d epochs of %d packets (64-byte frames), %d samples per latency", ph.epochs, in.queues[0].Packets(), len(ph.visibleMs))
	if !r.Opt.Trace {
		return nil
	}

	// Traced phase, its tail, then the isolated ingest passes.
	tr := NewTracer()
	tph, f, err := runIngestPhase(r, in, qs, tr, r.Deadline(0.5))
	if err != nil {
		return err
	}
	tracedTail(r, tr, f, ingestWindow)
	var skipped uint64
	var allocs float64
	for _, q := range in.queues {
		s, a, err := isolatedIngest(tr, q, in.cfg)
		if err != nil {
			return fmt.Errorf("isolated pass: %w", err)
		}
		skipped += s
		allocs = max(allocs, a)
	}

	read := tr.PerUnitNs("pcap.read")
	extract := tr.PerUnitNs("packet.extract")
	hash := tr.PerUnitNs("flowkey.hash")
	insert := tr.PerUnitNs("core.insert")
	replay := tr.PerUnitNs("shard.replay")
	r.Set("pcap.read_ns_per_pkt", read, "ns")
	r.Set("packet.extract_ns_per_pkt", extract, "ns")
	r.Set("packet.skipped_ratio", float64(skipped)/float64(tr.Stat("packet.extract").units), "1")
	r.Set("flowkey.hash_ns_per_pkt", hash, "ns")
	r.Set("core.insert_ns_per_pkt", insert-hash, "ns")
	r.Set("core.allocs_per_pkt", allocs, "count")
	r.Set("shard.replay_ns_per_pkt", replay, "ns")
	r.Set("shard.handoff_ns_per_pkt", replay-(read+extract+insert), "ns")
	r.Set("shard.isolated_share", (read+extract+insert)/replay, "1")
	r.Set("shard.cpu_per_wall", float64(tph.replayCPU)/float64(tph.replayWall), "1")
	r.Set("shard.starved", float64(tph.starved)/float64(tph.epochs), "count")
	r.Set("loadgen.lag_ms_p99", percentile(tph.lagMs, 0.99), "ms")
	r.Set("trace.overhead_ratio", median(tph.cycleMs)/median(ph.cycleMs), "1")
	r.Note("isolated pass: read+extract+insert = %.1f%% of shard.replay_ns_per_pkt", 100*(read+extract+insert)/replay)
	return writeSpans(r, tr)
}

// setTail reports a p99 only when at least ten samples lie beyond it.
func setTail(r *Run, name string, xs []float64) {
	if tailSupported(len(xs), 0.99) {
		r.Set(name, percentile(xs, 0.99), "ms")
		return
	}
	r.Note("%s not reported: %d samples leave fewer than ten beyond the 99th percentile", name, len(xs))
}

// setupBudget is the set-up time after which a run stops repeating
// set-up once it has setupRepeats samples.
const setupBudget = 1500 * time.Millisecond

// timedSetup builds the workload's inputs and stack repeatedly, tearing
// down all but the last, and records setup_s as the median.
func timedSetup[T any](r *Run, build func() (T, error), teardown func(T)) (T, error) {
	var out T
	var secs []float64
	for start, i := time.Now(), 0; i < setupMaxRepeats && (i < setupRepeats || time.Since(start) < setupBudget); i++ {
		if i > 0 {
			teardown(out)
		}
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return out, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		out = v
	}
	r.Set("setup_s", median(secs), "s")
	return out, nil
}
