// Package trace provides packet traces for the evaluation: synthetic
// generators standing in for the proprietary CAIDA and MAWI archives
// (see DESIGN.md §5 for the substitution rationale), plus pcap import
// and export.
//
// The generators reproduce the properties sketch accuracy depends on:
// a heavy-tailed (Zipf) flow-size distribution, a realistic flow count
// per packet count, hierarchical address structure (so hierarchical
// heavy hitters exist at every prefix length), and a mixed port/
// protocol population. All generation is deterministic in the seed.
package trace

import (
	"fmt"
	"io"
	"math"
	"time"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/xrand"
)

// Packet is one trace record: the flow key, the wire size in bytes and
// the arrival time as an offset from the trace start.
type Packet struct {
	Key  flowkey.FiveTuple
	Size uint32
	TS   time.Duration
}

// Trace is a replayable in-memory packet stream.
type Trace struct {
	Name    string
	Packets []Packet
}

// Config parameterizes the synthetic generator.
type Config struct {
	// Name labels the trace in experiment output.
	Name string
	// Packets is the number of packets to generate.
	Packets int
	// Flows is the number of distinct 5-tuple flows.
	Flows int
	// Alpha is the Zipf skew of the flow-size distribution (≈1.1 for
	// CAIDA-like backbone traffic, ≈0.9 for MAWI-like edge traffic).
	Alpha float64
	// RateMpps sets the mean packet arrival rate in million packets
	// per second; arrivals are Poisson. Zero defaults to 1 Mpps.
	RateMpps float64
	// Seed drives all randomness.
	Seed uint64
}

// CAIDAConfig mirrors the paper's CAIDA 2018 Equinix-Chicago 60 s
// monitoring interval (~27M packets) scaled to n packets.
func CAIDAConfig(n int, seed uint64) Config {
	flows := n / 20 // CAIDA: ~1.3M flows / 27M pkts
	if flows < 64 {
		flows = 64
	}
	return Config{Name: "CAIDA-like", Packets: n, Flows: flows, Alpha: 1.1, Seed: seed}
}

// MAWIConfig mirrors the paper's MAWI 15-minute trace (~13M packets):
// a flatter tail and relatively more flows per packet.
func MAWIConfig(n int, seed uint64) Config {
	flows := n / 10
	if flows < 64 {
		flows = 64
	}
	return Config{Name: "MAWI-like", Packets: n, Flows: flows, Alpha: 0.9, Seed: seed}
}

// Population is the flow universe a trace is sampled from. Keeping the
// population separate from the sampled packets lets heavy-change
// experiments draw two windows over the same flows with shifted rates.
type Population struct {
	Keys    []flowkey.FiveTuple
	Weights []float64
}

// NewPopulation builds a hierarchical flow universe: source and
// destination addresses cluster into a Zipf-popular set of /8, /16 and
// /24 prefixes, destination ports mix well-known services with
// ephemeral ports, and flow sizes follow Zipf(alpha) by rank.
func NewPopulation(cfg Config) *Population {
	if cfg.Flows <= 0 || cfg.Packets < 0 {
		panic("trace: Flows must be positive")
	}
	rng := xrand.New(cfg.Seed)

	// Hierarchical address pools. Popularity of a cluster is itself
	// skewed, so aggregates at /8, /16 and /24 have heavy hitters.
	n8 := clampInt(cfg.Flows/2000+4, 4, 40)
	n16 := clampInt(cfg.Flows/200+8, 8, 400)
	n24 := clampInt(cfg.Flows/20+16, 16, 4000)
	pre8 := make([]uint32, n8)
	for i := range pre8 {
		pre8[i] = uint32(rng.Uint64n(223)+1) << 24 // avoid 0 and multicast
	}
	pre16 := make([]uint32, n16)
	for i := range pre16 {
		pre16[i] = pre8[zipfIndex(rng, n8, 1.0)] | uint32(rng.Uint64n(256))<<16
	}
	pre24 := make([]uint32, n24)
	for i := range pre24 {
		pre24[i] = pre16[zipfIndex(rng, n16, 1.0)] | uint32(rng.Uint64n(256))<<8
	}
	addr := func() uint32 {
		return pre24[zipfIndex(rng, n24, 1.0)] | uint32(rng.Uint64n(256))
	}

	wellKnown := []uint16{80, 443, 53, 22, 25, 123, 8080, 8443, 3306, 5353}
	p := &Population{
		Keys:    make([]flowkey.FiveTuple, cfg.Flows),
		Weights: make([]float64, cfg.Flows),
	}
	seen := make(map[flowkey.FiveTuple]bool, cfg.Flows)
	for i := 0; i < cfg.Flows; i++ {
		var k flowkey.FiveTuple
		for {
			k = flowkey.FiveTuple{
				SrcIP:   flowkey.IPv4FromUint32(addr()),
				DstIP:   flowkey.IPv4FromUint32(addr()),
				SrcPort: uint16(rng.Uint64n(64512) + 1024),
				Proto:   packet.ProtoTCP,
			}
			if rng.Uint64n(100) < 30 {
				k.Proto = packet.ProtoUDP
			}
			if rng.Uint64n(100) < 80 {
				k.DstPort = wellKnown[rng.Intn(len(wellKnown))]
			} else {
				k.DstPort = uint16(rng.Uint64n(64512) + 1024)
			}
			if !seen[k] {
				break
			}
		}
		seen[k] = true
		p.Keys[i] = k
		// Zipf-by-rank flow size.
		p.Weights[i] = 1 / math.Pow(float64(i+1), cfg.Alpha)
	}
	// Shuffle so rank is independent of the address structure.
	rng.Shuffle(cfg.Flows, func(a, b int) {
		p.Keys[a], p.Keys[b] = p.Keys[b], p.Keys[a]
	})
	return p
}

// zipfIndex draws an index in [0,n) with probability ∝ 1/(i+1)^alpha
// via inverse-ish rejection (cheap approximation adequate for address
// cluster popularity).
func zipfIndex(rng *xrand.Source, n int, alpha float64) int {
	for {
		u := rng.Float64()
		var idx int
		if math.Abs(alpha-1) < 1e-9 {
			// Inverse CDF of 1/x on [1, n+1).
			idx = int(math.Pow(float64(n+1), u)) - 1
		} else {
			// Inverse CDF of the continuous Pareto on [1, n+1).
			x := math.Pow(float64(n+1), 1-alpha)*u + (1 - u)
			idx = int(math.Pow(x, 1/(1-alpha))) - 1
		}
		if idx >= 0 && idx < n {
			return idx
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Sample draws a trace of packets from the population with the given
// per-flow weights (defaults to p.Weights when nil) at 1 Mpps Poisson
// arrivals.
func (p *Population) Sample(name string, packets int, weights []float64, seed uint64) *Trace {
	return p.SampleAt(name, packets, weights, seed, 1.0)
}

// SampleAt is Sample with an explicit mean arrival rate: timestamps
// accumulate exponential inter-arrival gaps (a Poisson process).
func (p *Population) SampleAt(name string, packets int, weights []float64, seed uint64, rateMpps float64) *Trace {
	if weights == nil {
		weights = p.Weights
	}
	if len(weights) != len(p.Keys) {
		panic("trace: weight vector length mismatch")
	}
	if rateMpps <= 0 {
		rateMpps = 1.0
	}
	meanGapNs := 1e3 / rateMpps
	rng := xrand.New(seed)
	table := newAliasTable(weights)
	out := &Trace{Name: name, Packets: make([]Packet, packets)}
	var now float64 // nanoseconds
	for i := range out.Packets {
		f := table.draw(rng)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		now += -math.Log(u) * meanGapNs
		out.Packets[i] = Packet{
			Key:  p.Keys[f],
			Size: packetBytes(rng, weights[f], weights[0]),
			TS:   time.Duration(now),
		}
	}
	return out
}

// packetBytes draws a wire size: flows near the top of the distribution
// behave like bulk transfers (MTU-sized), small flows like queries.
func packetBytes(rng *xrand.Source, w, wMax float64) uint32 {
	if wMax > 0 && w/wMax > 0.01 && rng.Uint64n(100) < 70 {
		return 1400 + uint32(rng.Uint64n(100))
	}
	return 64 + uint32(rng.Uint64n(600))
}

// Generate produces a trace from a fresh population.
func Generate(cfg Config) *Trace {
	p := NewPopulation(cfg)
	return p.SampleAt(cfg.Name, cfg.Packets, nil, cfg.Seed^0x51EE7, cfg.RateMpps)
}

// Duration is the time span of the trace (arrival of the last packet).
func (t *Trace) Duration() time.Duration {
	if len(t.Packets) == 0 {
		return 0
	}
	return t.Packets[len(t.Packets)-1].TS
}

// SplitByTime partitions the trace into consecutive measurement
// windows of the given length (the paper's "measurement window"
// abstraction). The final partial window is included.
func (t *Trace) SplitByTime(window time.Duration) []*Trace {
	if window <= 0 {
		panic("trace: window must be positive")
	}
	var out []*Trace
	cur := &Trace{Name: fmt.Sprintf("%s/w0", t.Name)}
	boundary := window
	for i := range t.Packets {
		for t.Packets[i].TS >= boundary {
			out = append(out, cur)
			cur = &Trace{Name: fmt.Sprintf("%s/w%d", t.Name, len(out))}
			boundary += window
		}
		cur.Packets = append(cur.Packets, t.Packets[i])
	}
	out = append(out, cur)
	return out
}

// CAIDALike generates a CAIDA-like trace with n packets.
func CAIDALike(n int, seed uint64) *Trace { return Generate(CAIDAConfig(n, seed)) }

// MAWILike generates a MAWI-like trace with n packets.
func MAWILike(n int, seed uint64) *Trace { return Generate(MAWIConfig(n, seed)) }

// GeneratePair produces two measurement windows over one population
// for heavy-change experiments: in the second window, changeFraction of
// the flows shift their rate by a large factor (up or down), and the
// rest keep their rate. The returned traces have cfg.Packets packets
// each.
func GeneratePair(cfg Config, changeFraction float64) (*Trace, *Trace) {
	p := NewPopulation(cfg)
	w1 := p.Sample(cfg.Name+"/w1", cfg.Packets, nil, cfg.Seed^0xAAAA)

	rng := xrand.New(cfg.Seed ^ 0xBBBB)
	w2weights := make([]float64, len(p.Weights))
	copy(w2weights, p.Weights)
	for i := range w2weights {
		if rng.Float64() < changeFraction {
			if rng.Uint64n(2) == 0 {
				w2weights[i] *= 8 + rng.Float64()*8 // surge
			} else {
				w2weights[i] /= 16 // collapse
			}
		}
	}
	w2 := p.Sample(cfg.Name+"/w2", cfg.Packets, w2weights, cfg.Seed^0xCCCC)
	return w1, w2
}

// FullCounts returns the exact per-flow packet counts — the ground
// truth for accuracy metrics.
func (t *Trace) FullCounts() map[flowkey.FiveTuple]uint64 {
	out := make(map[flowkey.FiveTuple]uint64)
	for i := range t.Packets {
		out[t.Packets[i].Key]++
	}
	return out
}

// TotalPackets returns len(t.Packets) as uint64.
func (t *Trace) TotalPackets() uint64 { return uint64(len(t.Packets)) }

// WritePCAP encodes the trace as an Ethernet pcap stream. Packet
// payloads are zero-filled to the recorded wire size (capped by
// snapLen). Every frame is built into one reused buffer, so the
// encoder's allocations do not grow with the packet count.
func (t *Trace) WritePCAP(w io.Writer, snapLen uint32) error {
	pw, err := pcap.NewWriter(w, pcap.LinkTypeEthernet, snapLen)
	if err != nil {
		return err
	}
	base := time.Unix(1600000000, 0)
	frame := make([]byte, 0, 2048) // a full MTU frame; larger ones grow it
	for i := range t.Packets {
		p := &t.Packets[i]
		payload := int(p.Size) - 54 // rough L2+L3+L4 header size
		if payload < 0 {
			payload = 0
		}
		frame = packet.AppendBuild(frame[:0], p.Key, packet.BuildOptions{PayloadLen: payload})
		if err := pw.WritePacket(base.Add(p.TS), frame, int(p.Size)); err != nil {
			return err
		}
	}
	return pw.Flush()
}

// FromPCAP decodes an Ethernet pcap stream into a trace, skipping
// frames packet.ExtractFiveTuple cannot key (mirroring how measurement
// pipelines ignore non-IP traffic). Timestamps count from the first
// kept packet.
func FromPCAP(r io.Reader) (*Trace, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	if lt := pr.LinkType(); lt != pcap.LinkTypeEthernet {
		return nil, fmt.Errorf("trace: unsupported link type %d", lt)
	}
	out := &Trace{Name: "pcap"}
	var base time.Time
	for {
		hdr, data, err := pr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		key, ok := packet.ExtractFiveTuple(data)
		if !ok {
			continue // non-IP or truncated frame
		}
		if base.IsZero() {
			base = hdr.Timestamp
		}
		out.Packets = append(out.Packets, Packet{
			Key:  key,
			Size: uint32(hdr.OriginalLength),
			TS:   hdr.Timestamp.Sub(base),
		})
	}
}
