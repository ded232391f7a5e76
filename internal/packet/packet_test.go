package packet

import (
	"testing"
	"testing/quick"

	"cocosketch/internal/flowkey"
)

func tcpKey() flowkey.FiveTuple {
	return flowkey.FiveTuple{
		SrcIP: [4]byte{192, 168, 1, 10}, DstIP: [4]byte{10, 0, 0, 1},
		SrcPort: 50123, DstPort: 443, Proto: ProtoTCP,
	}
}

func udpKey() flowkey.FiveTuple {
	return flowkey.FiveTuple{
		SrcIP: [4]byte{172, 16, 0, 5}, DstIP: [4]byte{8, 8, 8, 8},
		SrcPort: 5353, DstPort: 53, Proto: ProtoUDP,
	}
}

func TestBuildDecodeRoundTripTCP(t *testing.T) {
	frame := Build(tcpKey(), BuildOptions{PayloadLen: 100})
	got, ok := ExtractFiveTuple(frame)
	if !ok {
		t.Fatal("built TCP frame rejected")
	}
	if got != tcpKey() {
		t.Fatalf("round trip: got %v, want %v", got, tcpKey())
	}
	if flags := frame[14+20+13]; flags != TCPAck {
		t.Fatalf("TCP flags = %#x, want ACK", flags)
	}
}

func TestBuildDecodeRoundTripUDP(t *testing.T) {
	frame := Build(udpKey(), BuildOptions{PayloadLen: 8})
	got, ok := ExtractFiveTuple(frame)
	if !ok {
		t.Fatal("built UDP frame rejected")
	}
	if got != udpKey() {
		t.Fatalf("round trip: got %v, want %v", got, udpKey())
	}
	udp := frame[14+20:]
	if l := uint16(udp[4])<<8 | uint16(udp[5]); l != 16 {
		t.Fatalf("UDP length = %d, want 16", l)
	}
}

func TestBuildDecodeRoundTripQuick(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, isTCP bool) bool {
		key := flowkey.FiveTuple{
			SrcIP:   flowkey.IPv4FromUint32(src),
			DstIP:   flowkey.IPv4FromUint32(dst),
			SrcPort: sp, DstPort: dp, Proto: ProtoUDP,
		}
		if isTCP {
			key.Proto = ProtoTCP
		}
		got, ok := ExtractFiveTuple(Build(key, BuildOptions{}))
		return ok && got == key
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVLANTag(t *testing.T) {
	frame := Build(tcpKey(), BuildOptions{VLANID: 42})
	got, ok := ExtractFiveTuple(frame)
	if !ok {
		t.Fatal("VLAN-tagged frame rejected")
	}
	if got != tcpKey() {
		t.Fatalf("VLAN round trip: got %v", got)
	}
	if id := (uint16(frame[14])<<8 | uint16(frame[15])) & 0x0FFF; id != 42 {
		t.Fatalf("VLANID = %d, want 42", id)
	}
	if et := uint16(frame[16])<<8 | uint16(frame[17]); et != EtherTypeIPv4 {
		t.Fatalf("EtherType = %#x after VLAN", et)
	}
}

func TestIPv4Checksum(t *testing.T) {
	frame := Build(tcpKey(), BuildOptions{})
	ip := frame[14:34]
	// Re-computing over the header with checksum zeroed must match.
	var hdr [20]byte
	copy(hdr[:], ip)
	got := uint16(hdr[10])<<8 | uint16(hdr[11])
	hdr[10], hdr[11] = 0, 0
	if want := HeaderChecksum(hdr[:]); got != want {
		t.Fatalf("checksum %#x, want %#x", got, want)
	}
	// And the checksum of the full header (checksum included) is 0.
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(ip[i])<<8 | uint32(ip[i+1])
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	if ^uint16(sum) != 0 {
		t.Fatalf("header does not checksum to zero")
	}
}

func TestTruncatedFrames(t *testing.T) {
	frame := Build(tcpKey(), BuildOptions{})
	for _, n := range []int{0, 5, 13, 20, 33, 40} {
		if n >= len(frame) {
			continue
		}
		if _, ok := ExtractFiveTuple(frame[:n]); ok {
			t.Errorf("truncation to %d bytes extracted a key", n)
		}
	}
}

func TestUnsupportedEtherType(t *testing.T) {
	frame := Build(tcpKey(), BuildOptions{})
	frame[12], frame[13] = 0x08, 0x06 // ARP
	if key, ok := ExtractFiveTuple(frame); ok {
		t.Fatalf("ARP frame extracted key %v", key)
	}
}

func TestIPv4Options(t *testing.T) {
	// Hand-build an IPv4 header with IHL=6 (4 bytes of options).
	key := udpKey()
	frame := Build(key, BuildOptions{})
	// Splice options into the IP header.
	ip := frame[14:]
	withOpts := make([]byte, 0, len(frame)+4)
	withOpts = append(withOpts, frame[:14]...)
	hdr := make([]byte, 24)
	copy(hdr, ip[:20])
	hdr[0] = 0x46 // IHL 6
	withOpts = append(withOpts, hdr...)
	withOpts = append(withOpts, ip[20:]...)
	got, ok := ExtractFiveTuple(withOpts)
	if !ok {
		t.Fatal("IPv4 frame with options rejected")
	}
	if got != key {
		t.Fatalf("options round trip: got %v, want %v", got, key)
	}
}

func TestIPv6Decode(t *testing.T) {
	// Hand-build Ethernet + IPv6 + UDP.
	frame := make([]byte, 0, 14+40+8)
	eth := make([]byte, 14)
	eth[12], eth[13] = byte(EtherTypeIPv6>>8), byte(EtherTypeIPv6&0xFF)
	frame = append(frame, eth...)
	ip6 := make([]byte, 40)
	ip6[0] = 6 << 4
	ip6[4], ip6[5] = 0, 8 // payload length
	ip6[6] = ProtoUDP
	ip6[7] = 64
	for i := 8; i < 40; i++ {
		ip6[i] = byte(i)
	}
	frame = append(frame, ip6...)
	udp := make([]byte, 8)
	udp[0], udp[1] = 0x13, 0x88 // 5000
	udp[2], udp[3] = 0x00, 0x35 // 53
	udp[5] = 8
	frame = append(frame, udp...)

	key, ok := ExtractFiveTuple(frame)
	if !ok {
		t.Fatal("IPv6 frame rejected")
	}
	if key.Proto != ProtoUDP || key.SrcPort != 5000 || key.DstPort != 53 {
		t.Fatalf("IPv6 key = %v", key)
	}
	if key.SrcIP == ([4]byte{}) {
		t.Fatal("IPv6 source did not fold into key")
	}
}

func TestNonTCPUDPProtocol(t *testing.T) {
	key := tcpKey()
	key.Proto = 47 // GRE
	key.SrcPort, key.DstPort = 0, 0
	got, ok := ExtractFiveTuple(Build(key, BuildOptions{PayloadLen: 4}))
	if !ok {
		t.Fatal("GRE frame rejected")
	}
	if got != key {
		t.Fatalf("GRE key = %v, want %v", got, key)
	}
}

// TestDecoderReuseNoCrosstalk checks that extracting one frame leaves
// nothing behind that changes the key of the next.
func TestDecoderReuseNoCrosstalk(t *testing.T) {
	k1, _ := ExtractFiveTuple(Build(tcpKey(), BuildOptions{}))
	k2, _ := ExtractFiveTuple(Build(udpKey(), BuildOptions{}))
	if k1 == k2 {
		t.Fatal("extractor state leaked across packets")
	}
	k3, _ := ExtractFiveTuple(Build(tcpKey(), BuildOptions{}))
	if k3 != k1 {
		t.Fatal("extractor not idempotent across calls")
	}
}
