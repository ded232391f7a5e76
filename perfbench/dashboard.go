package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/trace"
	"cocosketch/internal/window"
	"cocosketch/internal/xrand"
)

// query-dashboard: a ring of sealed MAWI-like epochs queried over
// loopback HTTP by an open-loop generator — repeated dashboard queries
// (fixed masks, range=last:N, served from the cache) mixed with ad-hoc
// drill-downs (random mask, random explicit range: cache misses) — while
// the same schedule seals a pre-built epoch at a fixed cadence.
const (
	dashEpochPackets = 100_000
	dashTraces       = 8
	dashWindow       = 16
	// The basis of the seal cadence, the nominal rate and the drill-down
	// share is in ledger.json.
	dashSealEvery = 250 * time.Millisecond
	// dashRate is the nominal offered load in queries per second: a
	// quarter of the highest rate the mix sustains on a 2-vCPU host, so
	// the median request is not queued behind a drill-down.
	dashRate = 400
	// One query in dashDrillEvery is a drill-down.
	dashDrillEvery = 20
	// dashLimitMs is the p99 latency limit of query_sustained_qps.
	dashLimitMs  = 100
	dashRowLimit = 20
	// dashCheckEvery: one query in this many has its rows checked.
	dashCheckEvery = 16
)

// visibleMask is the probe mask of the seal-to-visible measurement.
var visibleMask = flowkey.MaskFields(flowkey.FieldSrcIP)

// dashGateQPS is the repository's own query-serving floor (make
// bench-query, README "Testing"): the query_sustained_qps ladder doubles
// the nominal rate until it passes it.
const dashGateQPS = 10_000

// dashLadder is the offered rates tried for query_sustained_qps: the
// nominal rate doubled until the first rate at or above dashGateQPS.
var dashLadder = func() []float64 {
	var out []float64
	for rate := 2.0 * dashRate; ; rate *= 2 {
		out = append(out, rate)
		if rate >= dashGateQPS {
			return out
		}
	}
}()

type dashInputs struct {
	cfg   core.Config
	base  []*core.Basic[flowkey.FiveTuple]
	exact []map[flowkey.FiveTuple]uint64
}

func buildDashInputs(r *Run) *dashInputs {
	in := &dashInputs{cfg: defaultConfig()}
	n := r.Scaled(dashEpochPackets, 2000)
	keys := make([]flowkey.FiveTuple, n)
	for i := 0; i < dashTraces; i++ {
		tr := trace.MAWILike(n, r.Opt.Seed*1000+500+uint64(i))
		for j := range tr.Packets {
			keys[j] = tr.Packets[j].Key
		}
		sk := core.NewBasic[flowkey.FiveTuple](in.cfg)
		sk.InsertBatchUnit(keys)
		in.base = append(in.base, sk)
		in.exact = append(in.exact, tr.FullCounts())
	}
	return in
}

// epochSketch is the sketch sealed as epoch e.
func (in *dashInputs) epochSketch(e uint64) *core.Basic[flowkey.FiveTuple] {
	return in.base[e%dashTraces].Clone()
}

// dashStack is a filled ring behind the HTTP endpoint.
type dashStack struct {
	ring *window.Ring
	qs   *queryServer
	next uint64 // next epoch to schedule
	reg  *telemetry.Registry

	sealMu   sync.Mutex
	sealTurn *sync.Cond
	sealed   uint64 // epochs sealed so far
}

func newDashStack(in *dashInputs, tr *Tracer) (*dashStack, error) {
	s := &dashStack{ring: window.NewRing(dashWindow, in.cfg)}
	s.sealTurn = sync.NewCond(&s.sealMu)
	if tr != nil {
		s.reg = telemetry.New()
		s.ring.SetTelemetry(s.reg)
	}
	for ; s.next < dashWindow; s.next++ {
		if err := s.ring.Seal(s.next, in.epochSketch(s.next)); err != nil {
			return nil, err
		}
	}
	s.sealed = s.next
	var err error
	if s.qs, err = startQueryServer(s.ring); err != nil {
		return nil, err
	}
	s.qs.SetTracer(tr)
	return s, nil
}

// dashOp is one scheduled operation.
type dashOp struct {
	due   time.Duration
	seal  bool
	drill bool
	mask  flowkey.Mask
	lastN int
	// u1, u2 pick a drill-down's explicit range inside the retention
	// current at send time.
	u1, u2 float64
	sketch *core.Basic[flowkey.FiveTuple]
	epoch  uint64
}

// dashCombos are the dashboard queries: fixed masks over the newest
// epoch and the whole window.
var dashCombos = func() []dashOp {
	var out []dashOp
	for _, m := range []flowkey.Mask{flowkey.MaskFields(flowkey.FieldSrcIP), flowkey.MaskFields(flowkey.FieldSrcIP, flowkey.FieldDstIP)} {
		for _, n := range []int{1, dashWindow} {
			out = append(out, dashOp{mask: m, lastN: n})
		}
	}
	return out
}()

// dashQuery is query i of the mix: every dashDrillEvery-th is a
// drill-down (random evaluation mask and explicit range), the rest cycle
// through dashCombos. The mix is fixed so the share of cache misses does
// not vary from run to run.
func dashQuery(i int, rng *xrand.Source) dashOp {
	if i%dashDrillEvery == dashDrillEvery-1 {
		masks := flowkey.EvaluationMasks()
		return dashOp{drill: true, mask: masks[rng.Uint64n(uint64(len(masks)))], u1: rng.Float64(), u2: rng.Float64()}
	}
	return dashCombos[i%len(dashCombos)]
}

// dashSchedule is the open-loop schedule of one phase: queries due at
// fixed intervals of 1/rate plus a seal every dashSealEvery.
func dashSchedule(in *dashInputs, s *dashStack, rng *xrand.Source, rate float64, d time.Duration) []dashOp {
	var ops []dashOp
	step := time.Duration(float64(time.Second) / rate)
	for t := step; t < d; t += step {
		op := dashQuery(len(ops), rng)
		op.due = t
		ops = append(ops, op)
	}
	// Merge the seal cadence into the same schedule.
	var out []dashOp
	i := 0
	for t := dashSealEvery; t < d; t += dashSealEvery {
		for i < len(ops) && ops[i].due < t {
			out = append(out, ops[i])
			i++
		}
		out = append(out, dashOp{due: t, seal: true, epoch: s.next, sketch: in.epochSketch(s.next)})
		s.next++
	}
	return append(out, ops[i:]...)
}

// dashSample is one answer kept for the correctness check.
type dashSample struct {
	mask flowkey.Mask
	resp window.QueryResponse
}

// dashPhase is the outcome of one open-loop phase.
type dashPhase struct {
	latMs, lagMs, visibleMs []float64
	completed, unsent       int
	// elapsed runs from the phase start to its last answer.
	elapsed time.Duration
	cpu     time.Duration
	samples []dashSample
	ops     []queryOp
}

// runDashPhase executes a schedule with runtime.NumCPU() load goroutines,
// each with its own single-connection client. Every operation is timed
// from its due time; operations still unsent a second after the phase
// ends are abandoned (counted as unsent, never as answered).
func runDashPhase(r *Run, s *dashStack, ops []dashOp, d time.Duration, tr *Tracer, reqBase uint64) *dashPhase {
	ph := &dashPhase{elapsed: d}
	workers := runtime.NumCPU()
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newQueryClient(s.qs.URL)
			defer c.Close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				op := &ops[i]
				due := start.Add(op.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				if op.seal {
					// Seals are never abandoned and run in epoch order.
					// The sealing goroutine then probes /query until the
					// epoch is served: seal-to-visible is timed from the
					// seal's due time.
					s.sealMu.Lock()
					for s.sealed < op.epoch {
						s.sealTurn.Wait()
					}
					sp := tr.Start("window.seal", Span{}, op.epoch)
					err := s.ring.Seal(op.epoch, op.sketch)
					tr.End(sp, 1)
					s.sealed++
					s.sealTurn.Broadcast()
					s.sealMu.Unlock()
					r.Op(err)
					if err != nil {
						continue
					}
					_, _, done, err := probeIncludes(r, c, tr, visibleMask, op.epoch, reqBase+uint64(i))
					if err == nil {
						mu.Lock()
						ph.visibleMs = append(ph.visibleMs, ms(done.Sub(due)))
						mu.Unlock()
					}
					continue
				}
				sent := time.Now()
				if sent.Sub(start) > d+time.Second {
					mu.Lock()
					ph.unsent++
					mu.Unlock()
					continue
				}
				spec := "last:" + strconv.Itoa(op.lastN)
				if op.drill {
					spec = drillRange(s.ring, op.u1, op.u2)
				}
				id := reqBase + uint64(i)
				u := c.queryURL(op.mask, spec, dashRowLimit)
				sp := tr.Start("http.client", Span{}, id)
				body, err := c.Get(u, id)
				tr.End(sp, 1)
				done := time.Now()
				r.Op(err)
				if err != nil {
					continue
				}
				qr, err := decodeQuery(body)
				if err != nil {
					r.Op(err)
					continue
				}
				mu.Lock()
				ph.completed++
				ph.elapsed = max(ph.elapsed, done.Sub(start))
				ph.latMs = append(ph.latMs, ms(done.Sub(due)))
				ph.lagMs = append(ph.lagMs, ms(sent.Sub(due)))
				if i%dashCheckEvery == 0 {
					ph.samples = append(ph.samples, dashSample{mask: op.mask, resp: qr})
				}
				if len(ph.ops) < 256 {
					ph.ops = append(ph.ops, queryOp{mask: op.mask, spec: spec, limit: dashRowLimit})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.cpu = cpuTime() - cpu0
	return ph
}

// dashSlice is one saturation measurement window.
const dashSlice = 500 * time.Millisecond

// runDashSaturation drives the cached dashboard queries closed-loop for
// d: each of runtime.NumCPU() clients sends its next query as soon as
// the previous one is answered. It returns the median over
// dashSlice-long windows of the answered queries per second, so a
// passing stall on the shared host moves it less than a plain mean.
func runDashSaturation(r *Run, s *dashStack, d time.Duration) float64 {
	var next atomic.Int64
	var rates []float64
	for start := time.Now(); time.Since(start) < d; {
		var answered atomic.Int64
		t0 := time.Now()
		end := t0.Add(dashSlice)
		parallel(runtime.NumCPU(), func(int) {
			c := newQueryClient(s.qs.URL)
			defer c.Close()
			for time.Now().Before(end) {
				op := dashCombos[int(next.Add(1)-1)%len(dashCombos)]
				_, err := c.Get(c.queryURL(op.mask, "last:"+strconv.Itoa(op.lastN), dashRowLimit), 0)
				r.Op(err)
				if err == nil {
					answered.Add(1)
				}
			}
		})
		rates = append(rates, float64(answered.Load())/time.Since(t0).Seconds())
	}
	return median(rates)
}

// drillMargin keeps drill-down ranges clear of the oldest retained
// epochs, so a seal landing while the request is in flight cannot evict
// the range (that would be a 410, not a slow answer).
const drillMargin = 4

// drillRange picks an explicit range [a, b) inside the ring's current
// retention from two uniform draws.
func drillRange(ring *window.Ring, u1, u2 float64) string {
	from, to, ok := ring.Bounds()
	if !ok || to-from <= drillMargin {
		return "*"
	}
	from += drillMargin
	a := from + uint64(u1*float64(to-from))
	b := a + 1 + uint64(u2*float64(to-a-1))
	return strconv.FormatUint(a, 10) + ":" + strconv.FormatUint(b, 10)
}

// checkDashSamples re-seals the run's epochs, in order, into a private
// ring of the same capacity and compares each sampled HTTP answer with
// Ring.Top over the same resolved range, as soon as the range's newest
// epoch is sealed (every answered range was retained when it was
// served, so it is retained here at that point too).
func checkDashSamples(r *Run, in *dashInputs, last uint64, samples []dashSample) error {
	sort.Slice(samples, func(i, j int) bool { return samples[i].resp.To < samples[j].resp.To })
	vr := window.NewRing(dashWindow, in.cfg)
	next := 0
	for e := uint64(0); e <= last; e++ {
		if err := vr.Seal(e, in.epochSketch(e)); err != nil {
			return err
		}
		for ; next < len(samples) && samples[next].resp.To <= e+1; next++ {
			checkDashSample(r, vr, samples[next], next == 0)
		}
	}
	r.Check(next == len(samples), "%d sampled answers cover epochs never sealed", len(samples)-next)
	return nil
}

// checkDashSample compares one sampled answer with vr.Top; corrupt (with
// --corrupt) alters the answer first.
func checkDashSample(r *Run, vr *window.Ring, sm dashSample, corrupt bool) {
	want, err := vr.Top(window.Range{From: sm.resp.From, To: sm.resp.To}, sm.mask, dashRowLimit)
	rows := sm.resp.Rows
	if corrupt && r.Opt.Corrupt && len(rows) > 0 {
		rows = append([]window.Row(nil), rows...)
		rows[0].Size++
	}
	ok := err == nil && len(want) == len(rows)
	for j := 0; ok && j < len(rows); j++ {
		ok = rows[j].Key == query.RenderPartial(sm.mask, want[j].Key) && rows[j].Size == want[j].Size
	}
	r.Check(ok, "query %s over %d:%d: HTTP rows differ from Ring.Top (%v)", sm.mask, sm.resp.From, sm.resp.To, err)
}

func runDashboard(r *Run) error {
	type built struct {
		in *dashInputs
		st *dashStack
	}
	b, err := timedSetup(r, func() (built, error) {
		in := buildDashInputs(r)
		st, err := newDashStack(in, nil)
		return built{in, st}, err
	}, func(b built) { b.st.qs.Close() })
	if err != nil {
		return err
	}
	in, st := b.in, b.st
	rng := xrand.New(r.Opt.Seed*7919 + 13)

	// Untraced: closed-loop saturation for 25% of the run (the first
	// third of it an unmeasured warm-up: heap growth and first-touch page
	// faults of a fresh process), the nominal rate for 55%, the ladder
	// steps for at most 20%. Traced: untraced and traced nominal phases of
	// half the run each.
	nominal, ladder := 0.55, 0.20
	if r.Opt.Trace {
		nominal = 0.5
	}
	d := time.Duration(r.Opt.Seconds * nominal * float64(time.Second))
	heap := startHeapSampler()
	if !r.Opt.Trace {
		// Saturation first, on the freshly set-up ring.
		satur := time.Duration(r.Opt.Seconds * (1 - nominal - ladder) / 3 * float64(time.Second))
		runDashSaturation(r, st, satur)
		r.Set("throughput_per_s", runDashSaturation(r, st, 2*satur), "1/s")
	}
	ph := runDashPhase(r, st, dashSchedule(in, st, rng, dashRate, d), d, nil, 0)
	// The ladder's overloaded last step queues without bound, so it is
	// not part of the peak.
	peak := heap.Stop()
	var steps []*dashPhase
	var rates []float64
	if !r.Opt.Trace {
		// The ladder stops at the first rate the server cannot sustain:
		// every higher rate would only queue more.
		stepDur := time.Duration(r.Opt.Seconds * ladder / float64(len(dashLadder)) * float64(time.Second))
		for i, rate := range dashLadder {
			s := runDashPhase(r, st, dashSchedule(in, st, rng, rate, stepDur), stepDur, nil, uint64(i+1)<<32)
			steps = append(steps, s)
			rates = append(rates, rate)
			if !meetsLimit(s) {
				break
			}
		}
	}

	rg := st.ring.LastN(dashWindow)
	exact := make(map[flowkey.FiveTuple]uint64)
	for e := rg.From; e < rg.To; e++ {
		addCounts(exact, in.exact[e%dashTraces])
	}
	f1, are, err := hhScores(st.ring, rg, exact)
	r.Check(err == nil, "heavy hitters: %v", err)
	samples := ph.samples
	for _, s := range steps {
		samples = append(samples, s.samples...)
	}
	if err := checkDashSamples(r, in, st.sealed-1, samples); err != nil {
		st.qs.Close()
		return err
	}
	st.qs.Close()

	p50 := median(ph.latMs)
	r.Set("query_ms_p50", p50, "ms")
	setTail(r, "query_ms_p99", ph.latMs)
	r.Set("visible_ms_p50", median(ph.visibleMs), "ms")
	r.Set("cpu_us_per_op", float64(ph.cpu)/float64(ph.completed)/1e3, "us")
	r.Set("peak_heap_mb", peak, "MiB")
	r.Set("hh_f1", f1, "1")
	r.Set("hh_are", are, "1")
	r.Set("loadgen.lag_ms_p99", percentile(ph.lagMs, 0.99), "ms")
	r.Note("nominal %d qps for %v: %d answered, %d unsent; %d seals", dashRate, d, ph.completed, ph.unsent, len(ph.visibleMs))

	sustained := 0.0
	if meetsLimit(ph) {
		sustained = dashRate
	}
	for i, s := range steps {
		got := float64(s.completed) / s.elapsed.Seconds()
		ok := meetsLimit(s)
		if ok {
			sustained = max(sustained, rates[i])
		}
		lat := append([]float64(nil), s.latMs...)
		r.Note("offered %.0f qps: answered %.0f/s, p99 %.2f ms, %d unsent, meets %d ms limit: %v",
			rates[i], got, percentile(lat, 0.99), s.unsent, dashLimitMs, ok)
	}
	if !r.Opt.Trace {
		r.Set("query_sustained_qps", sustained, "1/s")
		return nil
	}

	tr := NewTracer()
	tst, err := newDashStack(in, tr)
	if err != nil {
		return err
	}
	tph := runDashPhase(r, tst, dashSchedule(in, tst, rng, dashRate, d), d, tr, 0)
	isolatedQueries(tr, tst.ring, tph.ops)
	snap := tst.reg.Snapshot()
	tst.qs.Close()
	r.Set("window.seal_ns", tr.PerCallNs("window.seal"), "ns")
	setQueryPlane(r, tr, snap)
	r.Set("loadgen.lag_ms_p99", percentile(tph.lagMs, 0.99), "ms")
	r.Set("trace.overhead_ratio", median(tph.latMs)/p50, "1")
	return writeSpans(r, tr)
}

// meetsLimit reports whether a phase answered every scheduled query
// with p99 latency (from due time) within dashLimitMs.
func meetsLimit(ph *dashPhase) bool {
	if ph.unsent > 0 || len(ph.latMs) == 0 {
		return false
	}
	lat := append([]float64(nil), ph.latMs...)
	return percentile(lat, 0.99) <= dashLimitMs
}

// queryOp is one query of a stream replayed in process.
type queryOp struct {
	mask  flowkey.Mask
	spec  string
	limit int
}

// isolatedQueries replays the multi-epoch ops in process with the ring's
// result cache off, so every Ring.Window merges: spans around
// query.ParseSQL, Ring.Window and Engine.Top.
func isolatedQueries(tr *Tracer, ring *window.Ring, ops []queryOp) {
	ring.SetCacheLimit(0)
	defer ring.SetCacheLimit(window.DefaultCacheEntries)
	for i, op := range ops {
		id := uint64(i)
		sp := tr.Start("query.sql_parse", Span{}, id)
		m, err := query.ParseSQL(sqlFor(op.mask))
		tr.End(sp, 1)
		if err != nil {
			continue
		}
		spec, err := window.ParseRange(op.spec)
		if err != nil {
			continue
		}
		rg := spec.Resolve(ring)
		if from, to, err := ring.Resolve(rg); err != nil || to-from < 2 {
			continue // one epoch: Ring.Window returns its engine, no merge
		}
		sp = tr.Start("window.merge", Span{}, id)
		eng, err := ring.Window(rg)
		tr.End(sp, 1)
		if err != nil {
			continue
		}
		sp = tr.Start("query.top", Span{}, id)
		eng.Top(m, op.limit)
		tr.End(sp, 1)
	}
}

// setQueryPlane sets the window read path, query and HTTP metrics.
func setQueryPlane(r *Run, tr *Tracer, snap telemetry.Snapshot) {
	r.Set("window.merge_ns", tr.PerCallNs("window.merge"), "ns")
	hits, misses := snap.Counters["window.cache_hits"], snap.Counters["window.cache_misses"]
	if hits+misses > 0 {
		r.Set("window.cache_hit_ratio", float64(hits)/float64(hits+misses), "1")
	}
	r.Set("query.top_ns", tr.PerCallNs("query.top"), "ns")
	r.Set("query.sql_parse_ns", tr.PerCallNs("query.sql_parse"), "ns")
	handler := tr.PerCallNs("http.handler")
	r.Set("http.handler_ns", handler, "ns")
	r.Set("http.overhead_ns", tr.PerCallNs("http.client")-handler, "ns")
}

// writeSpans writes a traced run's spans under --spans-dir.
func writeSpans(r *Run, tr *Tracer) error {
	path := filepath.Join(r.Opt.SpansDir, fmt.Sprintf("%s-seed%d.jsonl", r.Opt.Workload, r.Opt.Seed))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	r.Note("spans written to %s", path)
	return nil
}
