package trace

import (
	"bytes"
	"io"
	"math"
	"sort"
	"testing"
	"time"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/packet"
	"cocosketch/internal/pcap"
	"cocosketch/internal/xrand"
)

func TestAliasTableUniform(t *testing.T) {
	tbl := newAliasTable([]float64{1, 1, 1, 1})
	rng := xrand.New(1)
	var counts [4]int
	const n = 40000
	for i := 0; i < n; i++ {
		counts[tbl.draw(rng)]++
	}
	for i, c := range counts {
		if c < n/4*9/10 || c > n/4*11/10 {
			t.Fatalf("bucket %d: %d draws, want about %d", i, c, n/4)
		}
	}
}

func TestAliasTableSkewed(t *testing.T) {
	tbl := newAliasTable([]float64{8, 1, 1})
	rng := xrand.New(2)
	var counts [3]int
	const n = 50000
	for i := 0; i < n; i++ {
		counts[tbl.draw(rng)]++
	}
	want0 := n * 8 / 10
	if counts[0] < want0*9/10 || counts[0] > want0*11/10 {
		t.Fatalf("heavy index drew %d, want about %d", counts[0], want0)
	}
}

func TestAliasTableDegenerate(t *testing.T) {
	tbl := newAliasTable([]float64{0, 5, 0})
	rng := xrand.New(3)
	for i := 0; i < 1000; i++ {
		if got := tbl.draw(rng); got != 1 {
			t.Fatalf("draw = %d, want 1", got)
		}
	}
}

func TestAliasTablePanics(t *testing.T) {
	for _, weights := range [][]float64{nil, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weights %v did not panic", weights)
				}
			}()
			newAliasTable(weights)
		}()
	}
}

func TestZipfIndexAlphaOne(t *testing.T) {
	rng := xrand.New(4)
	const n = 64
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		counts[zipfIndex(rng, n, 1.0)]++
	}
	if counts[0] <= counts[n-1] {
		t.Fatal("zipf(1.0) not decreasing in rank")
	}
	for _, c := range counts {
		if c == 0 {
			t.Fatal("zipf never drew some index")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := CAIDALike(5000, 7)
	b := CAIDALike(5000, 7)
	if len(a.Packets) != 5000 || len(b.Packets) != 5000 {
		t.Fatalf("lengths %d, %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs between identical seeds", i)
		}
	}
	c := CAIDALike(5000, 8)
	same := 0
	for i := range a.Packets {
		if a.Packets[i].Key == c.Packets[i].Key {
			same++
		}
	}
	if same == len(a.Packets) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestHeavyTail(t *testing.T) {
	tr := CAIDALike(200000, 1)
	counts := tr.FullCounts()
	vals := make([]uint64, 0, len(counts))
	for _, v := range counts {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	var total, top uint64
	for _, v := range vals {
		total += v
	}
	topN := len(vals) / 100 // top 1% of flows
	if topN < 1 {
		topN = 1
	}
	for _, v := range vals[:topN] {
		top += v
	}
	// Zipf(1.1): the top 1% of flows must carry a large share.
	if share := float64(top) / float64(total); share < 0.3 {
		t.Fatalf("top 1%% of flows carry %.2f of traffic; not heavy-tailed", share)
	}
}

func TestMAWIFlatterThanCAIDA(t *testing.T) {
	caida := CAIDALike(100000, 3)
	mawi := MAWILike(100000, 3)
	gini := func(tr *Trace) float64 {
		counts := tr.FullCounts()
		vals := make([]float64, 0, len(counts))
		var total float64
		for _, v := range counts {
			vals = append(vals, float64(v))
			total += float64(v)
		}
		sort.Float64s(vals)
		var cum, area float64
		for _, v := range vals {
			cum += v
			area += cum
		}
		return 1 - 2*area/(total*float64(len(vals)))
	}
	if gc, gm := gini(caida), gini(mawi); gc <= gm {
		t.Fatalf("CAIDA gini %.3f should exceed MAWI gini %.3f", gc, gm)
	}
}

func TestHierarchicalStructure(t *testing.T) {
	// Aggregating to /16 must concentrate traffic into few prefixes —
	// the property HHH experiments rely on.
	tr := CAIDALike(100000, 5)
	agg := make(map[[2]byte]uint64)
	for i := range tr.Packets {
		src := tr.Packets[i].Key.SrcIP
		agg[[2]byte{src[0], src[1]}]++
	}
	var max uint64
	for _, v := range agg {
		if v > max {
			max = v
		}
	}
	if float64(max)/float64(len(tr.Packets)) < 0.05 {
		t.Fatalf("largest /16 carries only %.3f of traffic; no hierarchy", float64(max)/float64(len(tr.Packets)))
	}
}

func TestGeneratePairSharesPopulation(t *testing.T) {
	cfg := CAIDAConfig(50000, 9)
	w1, w2 := GeneratePair(cfg, 0.05)
	if len(w1.Packets) != cfg.Packets || len(w2.Packets) != cfg.Packets {
		t.Fatal("window sizes wrong")
	}
	c1, c2 := w1.FullCounts(), w2.FullCounts()
	shared := 0
	for k := range c1 {
		if _, ok := c2[k]; ok {
			shared++
		}
	}
	if float64(shared)/float64(len(c1)) < 0.5 {
		t.Fatalf("only %d/%d flows shared between windows", shared, len(c1))
	}
	// Some flows must change dramatically.
	bigChanges := 0
	for k, v1 := range c1 {
		v2 := c2[k]
		if v1 > 100 && (v2 > 4*v1 || v2 < v1/4) {
			bigChanges++
		}
	}
	if bigChanges == 0 {
		t.Fatal("no heavy changes between windows")
	}
}

func TestPCAPRoundTrip(t *testing.T) {
	tr := CAIDALike(500, 11)
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf, 256); err != nil {
		t.Fatal(err)
	}
	back, err := FromPCAP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Packets) != len(tr.Packets) {
		t.Fatalf("round trip lost packets: %d vs %d", len(back.Packets), len(tr.Packets))
	}
	for i := range tr.Packets {
		if back.Packets[i].Key != tr.Packets[i].Key {
			t.Fatalf("packet %d key mismatch", i)
		}
		if back.Packets[i].Size != tr.Packets[i].Size {
			t.Fatalf("packet %d size mismatch: %d vs %d", i, back.Packets[i].Size, tr.Packets[i].Size)
		}
	}
}

// TestWritePCAPAllocsBounded pins the encoder's reused frame buffer:
// its allocation count is a small constant, whatever the packet count,
// and its output is byte-identical to building every frame afresh
// with packet.Build.
func TestWritePCAPAllocsBounded(t *testing.T) {
	for _, n := range []int{1_000, 20_000} {
		tr := CAIDALike(n, 13)
		allocs := testing.AllocsPerRun(3, func() {
			if err := tr.WritePCAP(io.Discard, 64); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Fatalf("%d packets: WritePCAP allocates %.0f times, want a constant ≤ 8", n, allocs)
		}
	}

	tr := CAIDALike(2_000, 17)
	var got, want bytes.Buffer
	if err := tr.WritePCAP(&got, 96); err != nil {
		t.Fatal(err)
	}
	w, err := pcap.NewWriter(&want, pcap.LinkTypeEthernet, 96)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets {
		frame := packet.Build(p.Key, packet.BuildOptions{PayloadLen: max(int(p.Size)-54, 0)})
		if err := w.WritePacket(time.Unix(1600000000, 0).Add(p.TS), frame, int(p.Size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WritePCAP output differs from per-packet packet.Build frames")
	}
}

// TestFromPCAPSkipsUnkeyableFrames feeds FromPCAP a capture that mixes
// frames the extractor must reject (ARP, a VLAN tag cut short, an IHL
// pointing past the frame) with well-formed IPv6, VLAN and
// IPv4-options frames. FromPCAP must keep exactly the frames
// packet.ExtractFiveTuple accepts, in capture order, with their keys,
// their on-wire length as Size, and timestamps counted from the first
// kept packet.
func TestFromPCAPSkipsUnkeyableFrames(t *testing.T) {
	tcp := flowkey.FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 443, DstPort: 51234, Proto: packet.ProtoTCP,
	}
	udp := flowkey.FiveTuple{
		SrcIP: [4]byte{172, 16, 0, 5}, DstIP: [4]byte{8, 8, 8, 8},
		SrcPort: 5353, DstPort: 53, Proto: packet.ProtoUDP,
	}

	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	ihlLiar := packet.Build(tcp, packet.BuildOptions{})
	ihlLiar[14] = 0x4F // IHL 15: a 60-byte header the frame does not have
	ipv6 := make([]byte, 14+40+8)
	ipv6[12], ipv6[13] = 0x86, 0xDD
	ipv6[14] = 6 << 4
	ipv6[14+6] = packet.ProtoUDP
	for i := 14 + 8; i < 14+40; i++ {
		ipv6[i] = byte(i)
	}
	ipv6[54], ipv6[55], ipv6[56], ipv6[57] = 0x13, 0x88, 0x00, 0x35
	// Splice a NOP NOP NOP EOL option word after the base IPv4 header.
	opts := packet.Build(udp, packet.BuildOptions{PayloadLen: 4})
	opts = append(opts[:34:34], append([]byte{1, 1, 1, 0}, opts[34:]...)...)
	opts[14] = 0x46 // IHL 6

	frames := []struct {
		name    string
		frame   []byte
		origLen int
		keep    bool
	}{
		{"arp", arp, 60, false},
		{"truncated-vlan", packet.Build(tcp, packet.BuildOptions{VLANID: 9})[:16], 64, false},
		{"ipv6", ipv6, 1500, true},
		{"ihl-liar", ihlLiar, 0, false},
		{"vlan", packet.Build(udp, packet.BuildOptions{VLANID: 42, PayloadLen: 10}), 0, true},
		{"ipv4-options", opts, 900, true},
		{"arp-late", arp, 60, false},
		{"tcp", packet.Build(tcp, packet.BuildOptions{PayloadLen: 32}), 0, true},
	}

	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet, 65535)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0)
	var want []Packet
	var firstKept time.Time
	for i, f := range frames {
		ts := base.Add(time.Duration(i) * time.Millisecond)
		if err := w.WritePacket(ts, f.frame, f.origLen); err != nil {
			t.Fatal(err)
		}
		key, ok := packet.ExtractFiveTuple(f.frame)
		if ok != f.keep {
			t.Fatalf("%s: extractor ok=%v, test expects keep=%v", f.name, ok, f.keep)
		}
		if !ok {
			continue
		}
		if firstKept.IsZero() {
			firstKept = ts
		}
		size := max(f.origLen, len(f.frame))
		want = append(want, Packet{Key: key, Size: uint32(size), TS: ts.Sub(firstKept)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := FromPCAP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != len(want) {
		t.Fatalf("kept %d packets, want %d", len(got.Packets), len(want))
	}
	for i := range want {
		if got.Packets[i] != want[i] {
			t.Errorf("packet %d = %+v, want %+v", i, got.Packets[i], want[i])
		}
	}
}

func TestPopulationUniqueKeys(t *testing.T) {
	p := NewPopulation(CAIDAConfig(10000, 2))
	seen := make(map[flowkey.FiveTuple]bool, len(p.Keys))
	for _, k := range p.Keys {
		if seen[k] {
			t.Fatalf("duplicate flow key %v", k)
		}
		seen[k] = true
	}
}

func TestSampleWeightsOverride(t *testing.T) {
	p := NewPopulation(Config{Name: "t", Packets: 0, Flows: 4, Alpha: 1, Seed: 1})
	w := []float64{0, 0, 1, 0}
	tr := p.Sample("t", 1000, w, 2)
	for i := range tr.Packets {
		if tr.Packets[i].Key != p.Keys[2] {
			t.Fatal("weight override ignored")
		}
	}
}

func TestFullCountsTotal(t *testing.T) {
	tr := MAWILike(3000, 6)
	var sum uint64
	for _, v := range tr.FullCounts() {
		sum += v
	}
	if sum != tr.TotalPackets() {
		t.Fatalf("counts sum %d != packets %d", sum, tr.TotalPackets())
	}
}

func TestPacketBytesRange(t *testing.T) {
	tr := CAIDALike(5000, 13)
	for i := range tr.Packets {
		s := tr.Packets[i].Size
		if s < 64 || s > 1500 {
			t.Fatalf("packet size %d out of ethernet range", s)
		}
	}
}

func TestTimestampsMonotone(t *testing.T) {
	tr := CAIDALike(20000, 3)
	prev := tr.Packets[0].TS
	for _, p := range tr.Packets[1:] {
		if p.TS < prev {
			t.Fatal("timestamps not monotone")
		}
		prev = p.TS
	}
	if tr.Duration() <= 0 {
		t.Fatal("zero trace duration")
	}
}

func TestPoissonRate(t *testing.T) {
	cfg := CAIDAConfig(100000, 4)
	cfg.RateMpps = 10
	tr := Generate(cfg)
	// 100k packets at 10 Mpps ≈ 10 ms.
	got := tr.Duration().Seconds()
	want := 0.01
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("duration %.4fs, want about %.4fs", got, want)
	}
}

func TestSplitByTime(t *testing.T) {
	cfg := CAIDAConfig(50000, 5)
	cfg.RateMpps = 1
	tr := Generate(cfg) // ≈ 50 ms
	wins := tr.SplitByTime(10 * time.Millisecond)
	if len(wins) < 4 || len(wins) > 7 {
		t.Fatalf("got %d windows, want about 5", len(wins))
	}
	total := 0
	for i, w := range wins {
		total += len(w.Packets)
		for _, p := range w.Packets {
			if p.TS < time.Duration(i)*10*time.Millisecond ||
				p.TS >= time.Duration(i+1)*10*time.Millisecond {
				t.Fatalf("window %d contains packet at %v", i, p.TS)
			}
		}
	}
	if total != len(tr.Packets) {
		t.Fatalf("windows lost packets: %d vs %d", total, len(tr.Packets))
	}
}

func TestSplitByTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window accepted")
		}
	}()
	CAIDALike(10, 1).SplitByTime(0)
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero flows did not panic")
		}
	}()
	NewPopulation(Config{Flows: 0})
}

func TestZipfWeightsMatchAlpha(t *testing.T) {
	p := NewPopulation(Config{Flows: 1000, Alpha: 1.1, Seed: 1})
	// Weights sorted descending must follow rank^-1.1 (they are
	// assigned by rank before shuffling keys).
	w := append([]float64(nil), p.Weights...)
	sort.Sort(sort.Reverse(sort.Float64Slice(w)))
	for _, rank := range []int{0, 9, 99, 999} {
		want := 1 / math.Pow(float64(rank+1), 1.1)
		if math.Abs(w[rank]-want) > 1e-12 {
			t.Fatalf("rank %d weight %g, want %g", rank, w[rank], want)
		}
	}
}

func BenchmarkGenerate100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = CAIDALike(100000, uint64(i))
	}
}

func BenchmarkSample(b *testing.B) {
	p := NewPopulation(CAIDAConfig(1000000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Sample("bench", 100000, nil, uint64(i))
	}
}
