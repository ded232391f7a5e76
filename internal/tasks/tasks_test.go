package tasks

import (
	"maps"
	"testing"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/xrand"
)

func TestThreshold(t *testing.T) {
	if got := Threshold(1000000, 1e-4); got != 100 {
		t.Fatalf("Threshold = %d, want 100", got)
	}
	if got := Threshold(10, 1e-4); got != 1 {
		t.Fatalf("floor failed: %d", got)
	}
}

func TestHeavyHitters(t *testing.T) {
	counts := map[int]uint64{1: 100, 2: 99, 3: 5000}
	hh := HeavyHitters(counts, 100)
	if len(hh) != 2 || hh[1] != 100 || hh[3] != 5000 {
		t.Fatalf("HeavyHitters = %v", hh)
	}
}

func TestHeavyChanges(t *testing.T) {
	w1 := map[int]uint64{1: 100, 2: 500, 3: 50}
	w2 := map[int]uint64{1: 105, 2: 100, 4: 900}
	hc := HeavyChanges(w1, w2, 100)
	if len(hc) != 2 {
		t.Fatalf("HeavyChanges = %v", hc)
	}
	if hc[2] != 400 {
		t.Fatalf("flow 2 change = %d, want 400", hc[2])
	}
	if hc[4] != 900 {
		t.Fatalf("new flow change = %d, want 900", hc[4])
	}
	if _, ok := hc[3]; ok {
		t.Fatalf("vanished flow (50→0) below threshold should be absent; got %v", hc)
	}
	if _, ok := hc[1]; ok {
		t.Fatal("stable flow reported as heavy change")
	}
}

func TestHeavyChangesSymmetricDisappearance(t *testing.T) {
	w1 := map[int]uint64{9: 300}
	hc := HeavyChanges(w1, map[int]uint64{}, 100)
	if hc[9] != 300 {
		t.Fatalf("disappearing flow change = %v", hc)
	}
}

func ip(v uint32) flowkey.IPv4 { return flowkey.IPv4FromUint32(v) }

func TestLevels1DAggregation(t *testing.T) {
	counts := map[flowkey.IPv4]uint64{
		ip(0xC0A80101): 10, // 192.168.1.1
		ip(0xC0A80102): 20, // 192.168.1.2
		ip(0xC0A80201): 5,  // 192.168.2.1
	}
	levels := Levels1DFromCounts(counts)
	if got := levels[32][ip(0xC0A80101)]; got != 10 {
		t.Fatalf("leaf = %d", got)
	}
	if got := levels[24][ip(0xC0A80100)]; got != 30 {
		t.Fatalf("/24 = %d, want 30", got)
	}
	if got := levels[16][ip(0xC0A80000)]; got != 35 {
		t.Fatalf("/16 = %d, want 35", got)
	}
	if got := levels[0][ip(0)]; got != 35 {
		t.Fatalf("root = %d, want 35", got)
	}
	// Query accessor agrees and masks for the caller.
	if got := levels.Query(Node1D{Prefix: ip(0xC0A801FF), Len: 24}); got != 30 {
		t.Fatalf("Query(/24) = %d", got)
	}
}

func TestExtractHHH1DSimple(t *testing.T) {
	// One heavy host: it is the only HHH; ancestors' conditioned
	// counts fall below threshold.
	counts := map[flowkey.IPv4]uint64{
		ip(0x0A000001): 1000,
		ip(0x0A000002): 3,
		ip(0x0B000001): 4,
	}
	hhh := ExtractHHH1D(Levels1DFromCounts(counts), 100)
	if len(hhh) != 1 {
		t.Fatalf("HHH = %v", hhh)
	}
	if got := hhh[Node1D{Prefix: ip(0x0A000001), Len: 32}]; got != 1000 {
		t.Fatalf("conditioned count = %d", got)
	}
}

func TestExtractHHH1DAggregateOnly(t *testing.T) {
	// 200 hosts in one /24, each tiny. With a bit-granularity
	// hierarchy, the deepest aggregates reaching the threshold are the
	// /26 blocks (64 hosts × 2 = 128 ≥ 100), which then cover their
	// ancestors: no /32 and no /24 is reported.
	counts := map[flowkey.IPv4]uint64{}
	for i := uint32(0); i < 200; i++ {
		counts[ip(0xC0A80100|i%256)] += 2
	}
	hhh := ExtractHHH1D(Levels1DFromCounts(counts), 100)
	if len(hhh) != 3 {
		t.Fatalf("want the three full /26 blocks, got %v", hhh)
	}
	for n, cond := range hhh {
		if n.Len != 26 {
			t.Fatalf("unexpected node %v", n)
		}
		if cond != 128 {
			t.Fatalf("node %v conditioned = %d, want 128", n, cond)
		}
	}
	if _, ok := hhh[Node1D{Prefix: ip(0xC0A801C0), Len: 26}]; ok {
		t.Fatal("partial /26 block (16 packets) wrongly reported")
	}
}

func TestExtractHHH1DConditioning(t *testing.T) {
	// Heavy host (600) under a /24 with 500 more spread evenly enough
	// that no sub-/24 aggregate reaches the threshold on its own: both
	// the host and the /24 are HHHs, and the /24's conditioned count
	// excludes the host.
	counts := map[flowkey.IPv4]uint64{ip(0xC0A80101): 600}
	for j := uint32(0); j < 125; j++ {
		counts[ip(0xC0A80100|(j*2)%256)] += 4
	}
	hhh := ExtractHHH1D(Levels1DFromCounts(counts), 300)
	host := Node1D{Prefix: ip(0xC0A80101), Len: 32}
	sub := Node1D{Prefix: ip(0xC0A80100), Len: 24}
	if hhh[host] != 600 {
		t.Fatalf("host conditioned = %d, want 600", hhh[host])
	}
	if hhh[sub] != 500 {
		t.Fatalf("/24 conditioned = %d, want 500 (host excluded)", hhh[sub])
	}
	// The /16 sees everything covered: no further HHH.
	if len(hhh) != 2 {
		t.Fatalf("unexpected extra HHHs: %v", hhh)
	}
}

func TestByteGranularityHHH(t *testing.T) {
	// 200 hosts × 2 in one /24: at byte granularity the /24 IS the
	// reported node (no /26 level exists to pre-empt it — contrast
	// with TestExtractHHH1DAggregateOnly).
	counts := map[flowkey.IPv4]uint64{}
	for i := uint32(0); i < 200; i++ {
		counts[ip(0xC0A80100|i%256)] += 2
	}
	levels := Levels1DGranularFromCounts(counts, ByteLengths1D())
	hhh := ExtractHHHAtLengths(levels, ByteLengths1D(), 100)
	if len(hhh) != 1 {
		t.Fatalf("HHH = %v", hhh)
	}
	if got := hhh[Node1D{Prefix: ip(0xC0A80100), Len: 24}]; got != 400 {
		t.Fatalf("/24 conditioned = %d, want 400", got)
	}
}

func TestByteGranularityConditioning(t *testing.T) {
	// A heavy host plus diffuse /16 traffic: host reported at /32,
	// remainder at /16, nothing at /24 (each /24 below threshold).
	// The heavy host sits in subnet byte 0x39 (57), outside the
	// diffuse range (subnet bytes 0..49), so no count collides.
	counts := map[flowkey.IPv4]uint64{ip(0x0A013901): 500}
	for i := uint32(0); i < 100; i++ {
		counts[ip(0x0A010000|(i%50)<<8|i%250)] += 3
	}
	levels := Levels1DGranularFromCounts(counts, ByteLengths1D())
	hhh := ExtractHHHAtLengths(levels, ByteLengths1D(), 250)
	if hhh[Node1D{Prefix: ip(0x0A013901), Len: 32}] != 500 {
		t.Fatalf("host missing: %v", hhh)
	}
	if got := hhh[Node1D{Prefix: ip(0x0A010000), Len: 16}]; got != 300 {
		t.Fatalf("/16 conditioned = %d, want 300 (%v)", got, hhh)
	}
	if len(hhh) != 2 {
		t.Fatalf("unexpected nodes: %v", hhh)
	}
}

func TestExtractHHHAtLengthsPanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ascending lengths accepted")
		}
	}()
	ExtractHHHAtLengths(nil, []int{8, 16}, 1)
}

func pair(s, d uint32) flowkey.IPPair {
	return flowkey.IPPair{Src: ip(s), Dst: ip(d)}
}

// levels2DBruteForce is the reference lattice: every input pair
// added to every node directly.
func levels2DBruteForce(counts map[flowkey.IPPair]uint64) Levels2D {
	grid := NewLevels2D()
	for p, v := range counts {
		for sp := 0; sp <= 32; sp++ {
			for dp := 0; dp <= 32; dp++ {
				grid[sp][dp][p.Prefix(sp, dp)] += v
			}
		}
	}
	return grid
}

// TestLevels2DMatchesBruteForce pins the rolled-up lattice to the
// brute-force one, node for node, over clustered and scattered pairs.
func TestLevels2DMatchesBruteForce(t *testing.T) {
	rng := xrand.New(5)
	counts := map[flowkey.IPPair]uint64{}
	for i := 0; i < 400; i++ {
		src := uint32(rng.Uint64())
		if i%2 == 0 {
			src = 0x0A000000 | src&0xFFF // clustered under 10.0.0.0/20
		}
		counts[pair(src, uint32(rng.Uint64()))] += 1 + rng.Uint64()%100
	}
	got, want := Levels2DFromCounts(counts), levels2DBruteForce(counts)
	for sp := 0; sp <= 32; sp++ {
		for dp := 0; dp <= 32; dp++ {
			if !maps.Equal(got[sp][dp], want[sp][dp]) {
				t.Fatalf("node (%d,%d): %d entries, brute force has %d", sp, dp, len(got[sp][dp]), len(want[sp][dp]))
			}
		}
	}
}

func TestLevels2DAggregation(t *testing.T) {
	counts := map[flowkey.IPPair]uint64{
		pair(0xC0A80101, 0x0A000001): 10,
		pair(0xC0A80102, 0x0A000002): 20,
	}
	grid := Levels2DFromCounts(counts)
	if got := grid[24][24][pair(0xC0A80100, 0x0A000000)]; got != 30 {
		t.Fatalf("(24,24) = %d, want 30", got)
	}
	if got := grid[32][0][pair(0xC0A80101, 0)]; got != 10 {
		t.Fatalf("(32,0) = %d, want 10", got)
	}
	if got := grid[0][0][pair(0, 0)]; got != 30 {
		t.Fatalf("root = %d, want 30", got)
	}
}

func TestDescendant2D(t *testing.T) {
	leaf := Node2D{Pair: pair(0xC0A80101, 0x0A000001), SrcLen: 32, DstLen: 32}
	mid := Node2D{Pair: pair(0xC0A80100, 0x0A000000), SrcLen: 24, DstLen: 24}
	root := Node2D{SrcLen: 0, DstLen: 0}
	if !descendant2D(leaf, mid) || !descendant2D(mid, root) || !descendant2D(leaf, root) {
		t.Fatal("descendant chain broken")
	}
	if descendant2D(mid, leaf) {
		t.Fatal("ancestor flagged as descendant")
	}
	other := Node2D{Pair: pair(0xC0A90100, 0x0A000000), SrcLen: 24, DstLen: 24}
	if descendant2D(leaf, other) {
		t.Fatal("disjoint prefix flagged as ancestor")
	}
}

func TestGLB2D(t *testing.T) {
	a := Node2D{Pair: pair(0xC0A80100, 0), SrcLen: 24, DstLen: 0}
	b := Node2D{Pair: pair(0xC0A80000, 0x0A000000), SrcLen: 16, DstLen: 8}
	g, ok := glb2D(a, b)
	if !ok {
		t.Fatal("compatible nodes reported disjoint")
	}
	if g.SrcLen != 24 || g.DstLen != 8 || g.Pair != pair(0xC0A80100, 0x0A000000) {
		t.Fatalf("glb = %v", g)
	}
	c := Node2D{Pair: pair(0xC0A90000, 0), SrcLen: 16, DstLen: 0}
	if _, ok := glb2D(a, c); ok {
		t.Fatal("disjoint nodes produced a meet")
	}
}

func TestExtractHHH2DSimple(t *testing.T) {
	counts := map[flowkey.IPPair]uint64{
		pair(0x0A000001, 0x0B000001): 1000,
		pair(0x0A000002, 0x0B000002): 2,
	}
	hhh := ExtractHHH2D(Levels2DFromCounts(counts), 100)
	leaf := Node2D{Pair: pair(0x0A000001, 0x0B000001), SrcLen: 32, DstLen: 32}
	if hhh[leaf] != 1000 {
		t.Fatalf("leaf conditioned = %d, want 1000 (%v)", hhh[leaf], hhh)
	}
	// Every ancestor is fully covered: only one HHH.
	if len(hhh) != 1 {
		t.Fatalf("HHH set = %v", hhh)
	}
}

func TestExtractHHH2DDiamond(t *testing.T) {
	// Traffic spread over one source /24 to many destinations, plus
	// many sources to one destination /24: both "wings" become HHHs
	// without double counting at the root. Hosts and peers are spread
	// so no deeper aggregate reaches the threshold first.
	counts := map[flowkey.IPPair]uint64{}
	for i := uint32(0); i < 50; i++ {
		counts[pair(0xC0A80100|(i*5)%256, (i*5+3)<<24)] += 10 // one src /24
		counts[pair((i*5+7)<<24, 0x0A000B00|(i*5)%256)] += 10 // one dst /24
	}
	grid := Levels2DFromCounts(counts)
	hhh := ExtractHHH2D(grid, 400)
	srcWing := Node2D{Pair: pair(0xC0A80100, 0), SrcLen: 24, DstLen: 0}
	dstWing := Node2D{Pair: pair(0, 0x0A000B00), SrcLen: 0, DstLen: 24}
	if _, ok := hhh[srcWing]; !ok {
		t.Fatalf("source wing missing: %v", hhh)
	}
	if _, ok := hhh[dstWing]; !ok {
		t.Fatalf("destination wing missing: %v", hhh)
	}
	// Root conditioned count must be ~0 (both wings cover everything).
	if v, ok := hhh[Node2D{}]; ok && v >= 400 {
		t.Fatalf("root over-counted: %d", v)
	}
}
