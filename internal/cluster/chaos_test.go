package cluster

// Cluster-wide seeded chaos suite: N backend collectors behind the
// Maglev dispatcher, all over faultnet's deterministic simulated
// network, with backends killed, revived and partitioned mid-epoch.
// Every scenario runs twice per seed and must replay bit-identically
// (transcript, telemetry, decoded cluster tables, virtual elapsed
// time), and every run must balance the cluster-wide conservation
// ledger summed across the whole agent fleet:
//
//	Σ observed = Σ delivered_weight + Σ spool_weight + Σ dropped_weight
//
// On lossless scenarios the suite additionally pins the tentpole
// invariant: the cluster decode (union of per-backend shards, folded
// canonically) is bit-identical to a single collector fed the same
// workload over plain TCP — sharding, failover and retry duplication
// must be invisible to measurement.
//
// Run with: go test -race -run Chaos ./internal/cluster/ (the
// Makefile "chaos" target).

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"cocosketch/internal/faultnet"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/xrand"
)

// Timing constants. Probe instants must never tie with data-plane
// instants, or transcript ordering (and with markUp even routing)
// would depend on goroutine scheduling. Epoch boundaries, forward
// timeouts and write timeouts all land on whole-millisecond sums, so
// the probe period carries a 777µs fraction: probe instant m never
// hits a whole millisecond until m = 1000, far beyond any run here.
const (
	clusterProbeEvery = 919*time.Millisecond + 777*time.Microsecond
	clusterEpochGap   = 2003 * time.Millisecond
	// clusterFwdTimeout bounds one dispatcher→backend exchange. The
	// agent's write timeout must exceed backends × clusterFwdTimeout so
	// a full failover cascade always resolves before the agent gives up
	// and moves on — otherwise an agent retry could contend on a
	// backend connection whose holder is parked on the virtual clock,
	// and quiescence detection would stall.
	clusterFwdTimeout   = 2503 * time.Millisecond
	clusterWriteTimeout = 9973 * time.Millisecond

	clusterBackendN = 3
	clusterAgentN   = 3
)

// clusterChaosKey derives a deterministic 5-tuple from a flow id
// (same construction as the netwide chaos suite).
func clusterChaosKey(id uint64) flowkey.FiveTuple {
	x := id*0x9e3779b97f4a7c15 + 1
	return flowkey.FiveTuple{
		SrcIP:   [4]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24)},
		DstIP:   [4]byte{byte(x >> 32), byte(x >> 40), byte(x >> 48), byte(x >> 56)},
		SrcPort: uint16(id),
		DstPort: uint16(id >> 3),
		Proto:   6,
	}
}

// clusterWorkloadSeed derives agent i's private workload stream seed.
func clusterWorkloadSeed(seed uint64, agent int) uint64 {
	return seed ^ (0xc1c1 + uint64(agent+1)*0x9e3779b9)
}

// feedClusterEpoch observes one epoch of synthetic traffic (64 flows,
// weights 1–3) drawn from the agent's workload stream.
func feedClusterEpoch(agent *netwide.Agent, wl *xrand.Source, packets int) {
	for p := 0; p < packets; p++ {
		id := wl.Uint64n(64)
		agent.Observe(clusterChaosKey(id), 1+id%3)
	}
}

// killableListener wraps a faultnet listener so a test can kill a
// backend the way a process death looks from the network: the
// listener unbinds (dials refused, probes fail) and every accepted
// connection drops. Revive rebinds the same address; the collector
// behind it keeps its in-memory shards, modeling a restart that
// recovers state (the decode invariants only need the shard objects,
// which the test holds directly).
type killableListener struct {
	net  *faultnet.Network
	name string

	mu    sync.Mutex
	l     *faultnet.Listener
	conns []net.Conn
}

// newKillable binds the named listener.
func newKillable(n *faultnet.Network, name string) (*killableListener, error) {
	l, err := n.Listen(name)
	if err != nil {
		return nil, err
	}
	return &killableListener{net: n, name: name, l: l}, nil
}

// Accept tracks accepted connections so Kill can sever them.
func (k *killableListener) Accept() (net.Conn, error) {
	k.mu.Lock()
	l := k.l
	k.mu.Unlock()
	c, err := l.Accept()
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	k.conns = append(k.conns, c)
	k.mu.Unlock()
	return c, nil
}

// Close closes the current listener (Kill without severing conns).
func (k *killableListener) Close() error {
	k.mu.Lock()
	l := k.l
	k.mu.Unlock()
	return l.Close()
}

// Addr returns the bound address.
func (k *killableListener) Addr() net.Addr {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.l.Addr()
}

// Kill unbinds the listener and severs every accepted connection.
func (k *killableListener) Kill() {
	k.mu.Lock()
	l := k.l
	conns := k.conns
	k.conns = nil
	k.mu.Unlock()
	l.Close()
	for _, c := range conns {
		c.Close()
	}
}

// Revive rebinds the address; the caller re-serves the collector on
// the returned (same) listener wrapper.
func (k *killableListener) Revive() error {
	l, err := k.net.Listen(k.name)
	if err != nil {
		return err
	}
	k.mu.Lock()
	k.l = l
	k.mu.Unlock()
	return nil
}

// clusterOpts parameterizes one cluster chaos scenario. Kill, revive
// and partition events fire at epoch boundaries, before that epoch's
// traffic, from the sequential driver — so no exchange is ever
// mid-flight when topology changes, keeping replays exact.
type clusterOpts struct {
	faults  faultnet.Faults
	epochs  int
	packets int // per agent per epoch

	spoolLimit  int
	spoolPolicy netwide.SpoolPolicy
	redials     int

	killAt   map[int][]int // epoch → backend indices to kill
	reviveAt map[int][]int // epoch → backend indices to revive

	partitionAt int // full-network partition before this epoch (-1 off)
	healAt      int // heal before this epoch (-1 never)

	finalDrain bool
}

// clusterResult is everything one run produced, for determinism
// comparison and invariant checks.
type clusterResult struct {
	// events and closes are the transcript split by
	// faultnet.SplitTranscript: every line but the connection closes,
	// in exact order, and the close lines as a sorted multiset.
	events []string
	closes []string

	agentC []map[string]uint64
	agentG []map[string]int64
	dispC  map[string]uint64
	dispG  map[string]int64
	collC  []map[string]uint64
	collG  []map[string]int64

	epochTables map[uint32]map[flowkey.FiveTuple]uint64
	healthy     []string
	elapsed     time.Duration
	backends    []*netwide.Collector
}

// runClusterChaos executes one full cluster scenario — backends,
// dispatcher, prober and agent fleet — on a seeded faultnet network,
// entirely on virtual time, and returns the run's observable state.
func runClusterChaos(t *testing.T, seed uint64, o clusterOpts) clusterResult {
	t.Helper()
	cfg := clusterCfg
	n := faultnet.New(seed, o.faults)

	// The driver must be a registered actor before any timed actor can
	// park: faultnet's quiescence rule compares parked waiters against
	// registered actors, so with the driver not yet registered the
	// prober would be the only timed waiter during setup and the
	// virtual clock could free-run through probe sweeps whenever the
	// test goroutine loses the CPU — wall-clock scheduling leaking into
	// virtual time. Registering the driver first, blocked (not parked)
	// on the setup gate, freezes the clock until construction is done.
	var driver func()
	setup := make(chan struct{})
	n.Go(func() {
		<-setup
		driver()
	})

	names := make([]string, clusterBackendN)
	colls := make([]*netwide.Collector, clusterBackendN)
	regB := make([]*telemetry.Registry, clusterBackendN)
	kls := make([]*killableListener, clusterBackendN)
	serve := func(i int) {
		n.Go(func() { _ = colls[i].Serve(kls[i]) })
	}
	for i := range names {
		names[i] = fmt.Sprintf("backend%d", i)
		regB[i] = telemetry.New()
		colls[i] = netwide.NewCollector(cfg).
			SetTelemetry(regB[i]).
			SetClock(n).
			SetIdleTimeout(10 * time.Minute).
			SetSpawn(n.Go)
		kl, err := newKillable(n, names[i])
		if err != nil {
			t.Fatal(err)
		}
		kls[i] = kl
		serve(i)
	}

	regD := telemetry.New()
	d, err := NewDispatcher(names)
	if err != nil {
		t.Fatal(err)
	}
	d.SetTelemetry(regD).
		SetClock(n).
		SetSpawn(n.Go).
		SetDial(n.Dial).
		SetProbe(n.Probe).
		SetHealth(clusterProbeEvery, DefaultDownAfter, DefaultUpAfter).
		SetForwardTimeout(clusterFwdTimeout)
	fl, err := n.Listen("dispatcher")
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() { _ = d.Serve(fl) })

	regA := make([]*telemetry.Registry, clusterAgentN)
	agents := make([]*netwide.Agent, clusterAgentN)
	for i := range agents {
		regA[i] = telemetry.New()
		agents[i] = netwide.NewAgent(uint16(i+1), cfg).
			SetTelemetry(regA[i]).
			SetClock(n).
			SetWriteTimeout(clusterWriteTimeout).
			SetBackoff(netwide.NewBackoff(netwide.DefaultBackoffBase, netwide.DefaultBackoffMax, seed+uint64(i+1))).
			SetSpool(o.spoolLimit, o.spoolPolicy)
	}

	// Single sequential driver: agents take turns, so the whole data
	// plane is one deterministic event chain (the prober is the only
	// other timed actor, and its instants never tie — see the timing
	// constants above).
	driver = func() {
		dial := func() (net.Conn, error) { return n.Dial("dispatcher") }
		conns := make([]net.Conn, clusterAgentN)
		for i := range conns {
			c, err := dial()
			if err != nil {
				t.Error(err)
				return
			}
			conns[i] = c
		}
		wls := make([]*xrand.Source, clusterAgentN)
		for i := range wls {
			wls[i] = xrand.New(clusterWorkloadSeed(seed, i))
		}
		for e := 0; e < o.epochs; e++ {
			for _, bi := range o.killAt[e] {
				kls[bi].Kill()
			}
			for _, bi := range o.reviveAt[e] {
				if err := kls[bi].Revive(); err != nil {
					t.Error(err)
					return
				}
				serve(bi)
			}
			if e == o.partitionAt {
				n.SetPartitioned(true)
			}
			if e == o.healAt {
				n.SetPartitioned(false)
			}
			for i, ag := range agents {
				feedClusterEpoch(ag, wls[i], o.packets)
				ag.EndEpoch()
				conns[i], _ = ag.FlushWithRedial(conns[i], dial, o.redials)
			}
			n.Sleep(clusterEpochGap)
		}
		if o.healAt == o.epochs {
			n.SetPartitioned(false)
		}
		if o.finalDrain {
			for tries := 0; tries < 30; tries++ {
				pending := false
				for i, ag := range agents {
					if ag.PendingEpochs() > 0 {
						pending = true
						conns[i], _ = ag.FlushWithRedial(conns[i], dial, o.redials)
					}
				}
				if !pending {
					break
				}
			}
		}
		for _, c := range conns {
			c.Close()
		}
		fl.Close()
		for _, kl := range kls {
			kl.Kill()
		}
		_ = d.Close()
	}
	close(setup)
	n.Wait()

	res := clusterResult{
		dispC:       regD.Snapshot().Counters,
		dispG:       regD.Snapshot().Gauges,
		epochTables: make(map[uint32]map[flowkey.FiveTuple]uint64),
		healthy:     d.Healthy(),
		elapsed:     n.Now().Sub(faultnet.Base),
		backends:    colls,
	}
	res.events, res.closes = faultnet.SplitTranscript(n.Transcript())
	for i := range regA {
		s := regA[i].Snapshot()
		res.agentC = append(res.agentC, s.Counters)
		res.agentG = append(res.agentG, s.Gauges)
	}
	for i := range regB {
		s := regB[i].Snapshot()
		res.collC = append(res.collC, s.Counters)
		res.collG = append(res.collG, s.Gauges)
	}
	for _, e := range Epochs(colls...) {
		if eng, ok := DecodeEpoch(e, colls...); ok {
			res.epochTables[e] = eng.FullTable()
		}
	}
	return res
}

// sumAgentC sums one counter across the agent fleet.
func sumAgentC(res clusterResult, name string) uint64 {
	var total uint64
	for _, c := range res.agentC {
		total += c[name]
	}
	return total
}

// sumAgentG sums one gauge across the agent fleet.
func sumAgentG(res clusterResult, name string) int64 {
	var total int64
	for _, g := range res.agentG {
		total += g[name]
	}
	return total
}

// checkClusterLedger asserts the cluster-wide conservation invariant:
// summed across every agent, observed weight is exactly delivered,
// still spooled, or deliberately shed — collectors dying mid-epoch,
// partitions and rebalances may delay or destroy reports, but never
// silently lose accounting.
func checkClusterLedger(t *testing.T, res clusterResult) {
	t.Helper()
	observed := sumAgentC(res, "netwide.observed")
	delivered := sumAgentC(res, "netwide.delivered_weight")
	pending := uint64(sumAgentG(res, "netwide.spool_weight"))
	dropped := sumAgentC(res, "netwide.dropped_weight")
	if observed != delivered+pending+dropped {
		t.Errorf("cluster conservation violated: observed %d != delivered %d + pending %d + dropped %d",
			observed, delivered, pending, dropped)
	}
}

// checkClusterMass asserts that the decoded cluster tables hold
// exactly the delivered weight: nothing acknowledged is missing from
// the decode, and retry duplicates (same shard landing on two
// backends after a failover ate the ack) are not double-counted.
func checkClusterMass(t *testing.T, res clusterResult) {
	t.Helper()
	var mass uint64
	for _, tab := range res.epochTables {
		for _, w := range tab {
			mass += w
		}
	}
	if delivered := sumAgentC(res, "netwide.delivered_weight"); mass != delivered {
		t.Errorf("cluster decode mass %d != delivered weight %d (dedup or loss bug)", mass, delivered)
	}
}

// checkClusterAllDelivered asserts the lossless outcome across the
// fleet: every observed unit of weight was acknowledged by a backend.
func checkClusterAllDelivered(t *testing.T, res clusterResult) {
	t.Helper()
	ob, dw := sumAgentC(res, "netwide.observed"), sumAgentC(res, "netwide.delivered_weight")
	if ob != dw {
		t.Errorf("observed %d != delivered %d (pending %d, dropped %d)",
			ob, dw, sumAgentG(res, "netwide.spool_weight"), sumAgentC(res, "netwide.dropped_weight"))
	}
	if depth := sumAgentG(res, "netwide.spool_depth"); depth != 0 {
		t.Errorf("fleet spool depth = %d after drain", depth)
	}
}

// singleCollectorReference feeds the identical workload to one plain
// collector over real TCP — no dispatcher, no faults — and returns
// its decoded per-epoch tables. This is the ground truth the cluster
// decode must match bit-for-bit on lossless scenarios.
func singleCollectorReference(t *testing.T, seed uint64, o clusterOpts) map[uint32]map[flowkey.FiveTuple]uint64 {
	t.Helper()
	cfg := clusterCfg
	coll := netwide.NewCollector(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = coll.Serve(l) }()

	for i := 0; i < clusterAgentN; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		agent := netwide.NewAgent(uint16(i+1), cfg)
		wl := xrand.New(clusterWorkloadSeed(seed, i))
		for e := 0; e < o.epochs; e++ {
			feedClusterEpoch(agent, wl, o.packets)
			agent.EndEpoch()
			if err := agent.Flush(conn); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
	}

	tables := make(map[uint32]map[flowkey.FiveTuple]uint64)
	for _, e := range coll.Epochs() {
		if eng, ok := coll.Epoch(e); ok {
			tables[e] = eng.FullTable()
		}
	}
	return tables
}

// checkClusterDecodeEqualsSingle pins the tentpole invariant: the
// union-and-fold cluster decode is indistinguishable from the single
// collector that saw everything.
func checkClusterDecodeEqualsSingle(t *testing.T, seed uint64, o clusterOpts, res clusterResult) {
	t.Helper()
	ref := singleCollectorReference(t, seed, o)
	if len(ref) != o.epochs {
		t.Fatalf("reference run decoded %d epochs, want %d", len(ref), o.epochs)
	}
	if !reflect.DeepEqual(res.epochTables, ref) {
		t.Errorf("cluster decode differs from single-collector reference (%d vs %d epochs)",
			len(res.epochTables), len(ref))
	}
}

// crossBackendDups counts (epoch, agent) shards present on more than
// one backend — the footprint of a retry after a failover or a lost
// acknowledgement, which GatherEpoch must dedup.
func crossBackendDups(res clusterResult) int {
	dups := 0
	for _, e := range Epochs(res.backends...) {
		holders := make(map[uint16]int)
		for _, c := range res.backends {
			if shards, ok := c.EpochShards(e); ok {
				for agent := range shards {
					holders[agent]++
				}
			}
		}
		for _, n := range holders {
			if n > 1 {
				dups += n - 1
			}
		}
	}
	return dups
}

// TestClusterChaosScenarios is the cluster fault matrix: every
// scenario runs twice per seed and must replay bit-identically,
// balance the cluster-wide ledger, and hold the decode-mass
// invariant; scenario-specific checks pin the failover semantics.
func TestClusterChaosScenarios(t *testing.T) {
	seeds := []uint64{1, 7, 1234}
	base := clusterOpts{
		epochs: 6, packets: 120,
		spoolLimit: 8, spoolPolicy: netwide.SpoolCoalesce,
		redials: 2, partitionAt: -1, healAt: -1, finalDrain: true,
	}
	scenarios := []struct {
		name  string
		opts  func() clusterOpts
		check func(t *testing.T, seed uint64, o clusterOpts, res clusterResult)
	}{
		{
			// Fault-free control: acceptance criterion (b) — the cluster
			// decode must be bit-identical to the single-collector decode.
			name: "control",
			opts: func() clusterOpts { return base },
			check: func(t *testing.T, seed uint64, o clusterOpts, res clusterResult) {
				checkClusterAllDelivered(t, res)
				checkClusterDecodeEqualsSingle(t, seed, o, res)
				if res.dispC["cluster.backend_down"] != 0 || res.dispC["cluster.failovers"] != 0 {
					t.Errorf("control run saw %d downs / %d failovers",
						res.dispC["cluster.backend_down"], res.dispC["cluster.failovers"])
				}
				if got := len(res.healthy); got != clusterBackendN {
					t.Errorf("healthy = %d backends, want %d", got, clusterBackendN)
				}
				if fw, want := res.dispC["cluster.forwards"], uint64(clusterAgentN*o.epochs); fw != want {
					t.Errorf("forwards = %d, want %d", fw, want)
				}
			},
		},
		{
			// A backend dies mid-run and never comes back: forwards fail
			// over transparently, shards it already holds still decode.
			name: "kill-one",
			opts: func() clusterOpts {
				o := base
				o.killAt = map[int][]int{2: {1}}
				return o
			},
			check: func(t *testing.T, seed uint64, o clusterOpts, res clusterResult) {
				checkClusterAllDelivered(t, res)
				checkClusterDecodeEqualsSingle(t, seed, o, res)
				if down, up := res.dispC["cluster.backend_down"], res.dispC["cluster.backend_up"]; down != 1 || up != 0 {
					t.Errorf("transitions down=%d up=%d, want 1/0", down, up)
				}
				if got := len(res.healthy); got != clusterBackendN-1 {
					t.Errorf("healthy = %d backends, want %d", got, clusterBackendN-1)
				}
			},
		},
		{
			// Death and resurrection: the prober restores the backend
			// after UpAfter clean probes and Table.With reinstates its
			// exact canonical slots.
			name: "kill-revive",
			opts: func() clusterOpts {
				o := base
				o.killAt = map[int][]int{1: {2}}
				o.reviveAt = map[int][]int{3: {2}}
				return o
			},
			check: func(t *testing.T, seed uint64, o clusterOpts, res clusterResult) {
				checkClusterAllDelivered(t, res)
				checkClusterDecodeEqualsSingle(t, seed, o, res)
				if down, up := res.dispC["cluster.backend_down"], res.dispC["cluster.backend_up"]; down != 1 || up != 1 {
					t.Errorf("transitions down=%d up=%d, want 1/1", down, up)
				}
				if got := len(res.healthy); got != clusterBackendN {
					t.Errorf("healthy = %d backends after revive, want %d", got, clusterBackendN)
				}
				if rb := res.dispC["cluster.rebalances"]; rb != 2 {
					t.Errorf("rebalances = %d, want 2", rb)
				}
			},
		},
		{
			// Full partition outlasting the spool limit: agents coalesce,
			// the prober marks the whole cluster down and restores it
			// after the heal, and the drain delivers everything.
			name: "partition-heal",
			opts: func() clusterOpts {
				o := base
				o.spoolLimit = 2
				o.redials = 1
				o.partitionAt = 1
				o.healAt = 4
				return o
			},
			check: func(t *testing.T, seed uint64, o clusterOpts, res clusterResult) {
				checkClusterAllDelivered(t, res)
				if c := sumAgentC(res, "netwide.spool_coalesced"); c == 0 {
					t.Error("partition outlasting the spool never coalesced")
				}
				if down, up := res.dispC["cluster.backend_down"], res.dispC["cluster.backend_up"]; down != clusterBackendN || up != clusterBackendN {
					t.Errorf("transitions down=%d up=%d, want %d/%d", down, up, clusterBackendN, clusterBackendN)
				}
				if got := len(res.healthy); got != clusterBackendN {
					t.Errorf("healthy = %d backends after heal, want %d", got, clusterBackendN)
				}
			},
		},
		{
			// Lossy links: dropped acks force agent retries and
			// mid-exchange failovers, landing the same shard on several
			// backends — the decode must dedup it all back to truth.
			name: "drop-dedup",
			opts: func() clusterOpts {
				o := base
				o.faults = faultnet.Faults{DropProb: 0.25}
				o.redials = 8
				return o
			},
			check: func(t *testing.T, seed uint64, o clusterOpts, res clusterResult) {
				checkClusterAllDelivered(t, res)
				checkClusterDecodeEqualsSingle(t, seed, o, res)
				var collDups uint64
				for _, c := range res.collC {
					collDups += c["netwide.dup_reports"]
				}
				if collDups == 0 && crossBackendDups(res) == 0 {
					t.Error("drop scenario produced no duplicate shards to dedup")
				}
			},
		},
		{
			// Unhealed outage with a bounded spool: agents shed oldest
			// epochs; the ledger must account every shed unit and the
			// decode must still hold exactly the delivered mass.
			name: "total-outage-shed",
			opts: func() clusterOpts {
				o := base
				o.spoolLimit = 2
				o.spoolPolicy = netwide.SpoolDropOldest
				o.redials = 1
				o.partitionAt = 2
				o.finalDrain = false
				return o
			},
			check: func(t *testing.T, seed uint64, o clusterOpts, res clusterResult) {
				if sumAgentC(res, "netwide.dropped_weight") == 0 {
					t.Error("unhealed outage shed no weight under SpoolDropOldest")
				}
				if depth, want := sumAgentG(res, "netwide.spool_depth"), int64(clusterAgentN*o.spoolLimit); depth != want {
					t.Errorf("fleet spool depth = %d, want pinned at %d", depth, want)
				}
				if got := len(res.healthy); got != 0 {
					t.Errorf("healthy = %d backends during outage, want 0", got)
				}
			},
		},
	}

	for _, sc := range scenarios {
		for _, seed := range seeds {
			opts := sc.opts()
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				a := runClusterChaos(t, seed, opts)
				b := runClusterChaos(t, seed, opts)
				if !reflect.DeepEqual(a.events, b.events) {
					t.Errorf("same seed, diverging transcripts (%d vs %d events)", len(a.events), len(b.events))
				}
				if !reflect.DeepEqual(a.closes, b.closes) {
					t.Errorf("same seed, diverging close sets (%d vs %d closes)", len(a.closes), len(b.closes))
				}
				if !reflect.DeepEqual(a.agentC, b.agentC) || !reflect.DeepEqual(a.agentG, b.agentG) {
					t.Error("same seed, diverging agent telemetry")
				}
				if !reflect.DeepEqual(a.dispC, b.dispC) || !reflect.DeepEqual(a.dispG, b.dispG) {
					t.Error("same seed, diverging dispatcher telemetry")
				}
				if !reflect.DeepEqual(a.collC, b.collC) || !reflect.DeepEqual(a.collG, b.collG) {
					t.Error("same seed, diverging collector telemetry")
				}
				if !reflect.DeepEqual(a.epochTables, b.epochTables) {
					t.Error("same seed, diverging decoded cluster tables")
				}
				if !reflect.DeepEqual(a.healthy, b.healthy) {
					t.Errorf("same seed, diverging health: %v vs %v", a.healthy, b.healthy)
				}
				if a.elapsed != b.elapsed {
					t.Errorf("same seed, diverging virtual time: %v vs %v", a.elapsed, b.elapsed)
				}
				checkClusterLedger(t, a)
				checkClusterMass(t, a)
				sc.check(t, seed, opts, a)
			})
		}
	}
}
