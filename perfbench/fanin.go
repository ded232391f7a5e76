package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
)

// report-fanin: many agents share at most runtime.NumCPU() loopback
// connections. Each agent observes a few thousand packets per short
// epoch through Agent.ObserveBatch and reports them with the compressed
// codec at shrink 8; each epoch is folded and sealed into the ring as
// soon as every agent has reported, then probed through /query.
const (
	fanAgents       = 16
	fanEpochPackets = 4096
	fanShrink       = 8
	fanWindow       = 8
	// fanRoundEpochs epochs make one round (see roundSpec.epochs).
	fanRoundEpochs = 32
	fanPoolPackets = 1 << 20
)

type fanInputs struct {
	cfg, stageCfg core.Config
	codec         report.Codec[flowkey.FiveTuple]
	pool          []flowkey.FiveTuple
	batch         int
}

func buildFanInputs(r *Run) (*fanInputs, error) {
	in := &fanInputs{cfg: report.AlignConfig(defaultConfig())}
	in.stageCfg = in.cfg
	in.stageCfg.BucketsPerArray /= fanShrink
	var err error
	if in.codec, err = report.Compressed[flowkey.FiveTuple](in.cfg, fanShrink, flowkey.FiveTupleFromBytes); err != nil {
		return nil, err
	}
	in.batch = r.Scaled(fanEpochPackets, 256)
	tr := trace.CAIDALike(r.Scaled(fanPoolPackets, 16*in.batch), r.Opt.Seed*1000+900)
	in.pool = make([]flowkey.FiveTuple, len(tr.Packets))
	for i := range tr.Packets {
		in.pool[i] = tr.Packets[i].Key
	}
	return in, nil
}

// keys is agent a's traffic in round-global epoch g.
func (in *fanInputs) keys(g, a int) []flowkey.FiveTuple {
	off := ((g*fanAgents + a) * in.batch) % (len(in.pool) - in.batch)
	return in.pool[off : off+in.batch]
}

// faninSpec is one round's stack: a collector and query ring behind
// loopback TCP, and fanAgents agents sharing conns connections.
func faninSpec(in *fanInputs, conns int) roundSpec {
	return roundSpec{
		cfg: in.cfg, ringCfg: in.stageCfg, codec: in.codec,
		agents: fanAgents, conns: conns, ringSize: fanWindow, epochs: fanRoundEpochs,
	}
}

// parallel runs fn(0..n-1) on n goroutines and waits for them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// fanPhase holds one phase's samples.
type fanPhase struct {
	roundsResult
	visibleMs, queryMs, lagMs, cycleMs []float64
	// rate and cpuUs are per-epoch reports per second and CPU
	// microseconds per report.
	rate, cpuUs []float64
}

// runFanPhase runs rounds until the deadline. With a tracer it leaves
// the last round open and returns it for the traced tail.
func runFanPhase(r *Run, in *fanInputs, qs *queryServer, tr *Tracer, deadline time.Time) (*fanPhase, *round, error) {
	ph := &fanPhase{}
	qs.SetTracer(tr)
	conns := min(runtime.NumCPU(), fanAgents)
	client := newQueryClient(qs.URL)
	defer client.Close()
	masks := flowkey.EvaluationMasks()
	res, f, err := runRounds(r, faninSpec(in, conns), qs, tr, deadline, roundHooks{
		epoch: func(f *round, e, g int) error {
			return fanEpoch(r, in, f, ph, client, tr, conns, masks[g%len(masks)], e, g)
		},
		exact: func(dst map[flowkey.FiveTuple]uint64, g int) {
			for a := 0; a < fanAgents; a++ {
				for _, k := range in.keys(g, a) {
					dst[k]++
				}
			}
		},
	})
	ph.roundsResult = res
	return ph, f, err
}

// fanEpoch runs epoch e: every agent observes its traffic, reports, and
// once all are acknowledged the epoch is sealed and probed through
// /query; then the untimed correctness check.
func fanEpoch(r *Run, in *fanInputs, f *round, ph *fanPhase, client *queryClient, tr *Tracer, conns int, m flowkey.Mask, e, g int) error {
	epoch := uint32(e)
	cpu0, t0 := cpuTime(), time.Now()
	parallel(conns, func(c int) {
		for a := c; a < fanAgents; a += conns {
			f.agents[a].ObserveBatch(in.keys(g, a))
		}
	})
	due := time.Now()
	var mu sync.Mutex
	var lastSent time.Time
	var reportErr error
	parallel(conns, func(c int) {
		for a := c; a < fanAgents; a += conns {
			sent := time.Now()
			err := agentReport(tr, f.agents[a], f.codecs[a], f.conns[c])
			mu.Lock()
			ph.lagMs = append(ph.lagMs, ms(sent.Sub(due)))
			if sent.After(lastSent) {
				lastSent = sent
			}
			if err != nil && reportErr == nil {
				reportErr = fmt.Errorf("agent %d epoch %d: %w", a, epoch, err)
			}
			mu.Unlock()
			r.Op(err)
		}
	})
	if reportErr != nil {
		return reportErr
	}
	if err := sealEpoch(tr, f.col.Collector, f.ring, epoch); err != nil {
		r.Op(err)
		return fmt.Errorf("seal epoch %d: %w", epoch, err)
	}
	_, sent, done, err := probeIncludes(r, client, tr, m, uint64(epoch), uint64(g))
	cpu1 := cpuTime()
	if err != nil {
		return err
	}
	ph.rate = append(ph.rate, fanAgents/done.Sub(t0).Seconds())
	ph.cpuUs = append(ph.cpuUs, float64(cpu1-cpu0)/1e3/fanAgents)
	ph.visibleMs = append(ph.visibleMs, ms(done.Sub(lastSent)))
	ph.queryMs = append(ph.queryMs, ms(done.Sub(sent)))
	ph.cycleMs = append(ph.cycleMs, ms(done.Sub(t0)))

	// Correctness, untimed: the sealed epoch's mass is the agents'
	// observed weight.
	sealed := f.ring.Sealed()
	mass := sealed[len(sealed)-1].Sketch.SumValues()
	if r.Opt.Corrupt {
		mass--
	}
	r.Check(mass == uint64(fanAgents*in.batch), "epoch %d: sealed mass %d, agents observed %d",
		epoch, mass, fanAgents*in.batch)
	return nil
}

func runFanin(r *Run) error {
	conns := min(runtime.NumCPU(), fanAgents)
	type built struct {
		in *fanInputs
		qs *queryServer
		f  *round
	}
	b, err := timedSetup(r, func() (built, error) {
		in, err := buildFanInputs(r)
		if err != nil {
			return built{}, err
		}
		qs, err := startQueryServer(window.NewRing(fanWindow, in.stageCfg))
		if err != nil {
			return built{}, err
		}
		// One round's stack, so setup includes what a round starts.
		f, err := newRound(faninSpec(in, conns), qs, nil)
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
	ph, _, err := runFanPhase(r, in, qs, nil, r.Deadline(share))
	peak := heap.Stop()
	if err != nil {
		return err
	}

	rate := median(ph.rate)
	r.Set("throughput_per_s", rate, "1/s")
	r.Set("reports_per_s", rate, "1/s")
	r.Set("cpu_us_per_op", median(ph.cpuUs), "us")
	r.Set("visible_ms_p50", median(ph.visibleMs), "ms")
	setTail(r, "visible_ms_p99", ph.visibleMs)
	r.Set("query_ms_p50", median(ph.queryMs), "ms")
	r.Set("peak_heap_mb", peak, "MiB")
	r.Set("hh_f1", ph.f1, "1")
	r.Set("hh_are", ph.are, "1")
	r.Set("report_bytes_per_epoch", float64(ph.bytes)/float64(ph.epochs*fanAgents), "B")
	r.Note("%d agents on %d connections, %d packets per agent-epoch; %d epochs in %d rounds",
		fanAgents, conns, in.batch, ph.epochs, ph.rounds)
	if !r.Opt.Trace {
		return nil
	}

	tr := NewTracer()
	tph, f, err := runFanPhase(r, in, qs, tr, r.Deadline(0.5))
	if err != nil {
		return err
	}
	tracedTail(r, tr, f, fanWindow)
	r.Set("loadgen.lag_ms_p99", percentile(tph.lagMs, 0.99), "ms")
	r.Set("trace.overhead_ratio", median(tph.cycleMs)/median(ph.cycleMs), "1")
	return writeSpans(r, tr)
}
