package packet

import "cocosketch/internal/flowkey"

// BuildOptions controls packet construction.
type BuildOptions struct {
	// PayloadLen is the L4 payload length in bytes (zero-filled).
	PayloadLen int
	// VLANID, if non-zero, inserts an 802.1Q tag.
	VLANID uint16
	// TCPFlags sets the flag byte for TCP packets (defaults to ACK).
	TCPFlags uint8
}

// frameLen returns the total frame size and the Ethernet header length
// for the key/options pair.
func frameLen(key flowkey.FiveTuple, opt BuildOptions) (total, ethLen int) {
	ethLen = 14
	if opt.VLANID != 0 {
		ethLen = 18
	}
	l4 := opt.PayloadLen
	switch key.Proto {
	case ProtoTCP:
		l4 += 20
	case ProtoUDP:
		l4 += 8
	}
	return ethLen + 20 + l4, ethLen
}

// Build constructs a well-formed Ethernet/IPv4/{TCP,UDP} frame carrying
// the given 5-tuple. Unknown protocols produce a bare IPv4 packet whose
// payload is zero-filled. ExtractFiveTuple recovers the same key from
// the frame (round-trip property used in tests and the OVS pipeline).
// The whole frame is built into one exactly-sized buffer —
// a single allocation; callers that want none use AppendBuild.
func Build(key flowkey.FiveTuple, opt BuildOptions) []byte {
	return AppendBuild(nil, key, opt)
}

// AppendBuild appends the frame Build would return to dst and returns
// the extended slice. When dst has capacity for the frame — a reused
// scratch buffer — no allocation is performed; the
// frame region is zeroed before the headers are written, so reuse
// cannot leak stale payload bytes into the new frame.
func AppendBuild(dst []byte, key flowkey.FiveTuple, opt BuildOptions) []byte {
	total, ethLen := frameLen(key, opt)
	off := len(dst)
	if need := off + total; cap(dst) < need {
		grown := make([]byte, need)
		copy(grown, dst[:off])
		dst = grown
	} else {
		dst = dst[:need]
		clear(dst[off:need])
	}
	frame := dst[off:]

	// Ethernet: locally administered MACs derived from the addresses,
	// purely cosmetic but stable for a flow.
	frame[0], frame[1] = 0x02, 0x00
	copy(frame[2:6], key.DstIP[:])
	frame[6], frame[7] = 0x02, 0x01
	copy(frame[8:12], key.SrcIP[:])
	if opt.VLANID != 0 {
		frame[12], frame[13] = byte(EtherTypeVLAN>>8), byte(EtherTypeVLAN&0xFF)
		frame[14], frame[15] = byte(opt.VLANID>>8), byte(opt.VLANID)
		frame[16], frame[17] = byte(EtherTypeIPv4>>8), byte(EtherTypeIPv4&0xFF)
	} else {
		frame[12], frame[13] = byte(EtherTypeIPv4>>8), byte(EtherTypeIPv4&0xFF)
	}

	ip := frame[ethLen:]
	ipLen := total - ethLen
	ip[0] = 0x45 // version 4, IHL 5
	ip[2] = byte(ipLen >> 8)
	ip[3] = byte(ipLen)
	ip[6] = 0x40 // don't fragment
	ip[8] = 64   // TTL
	ip[9] = key.Proto
	copy(ip[12:16], key.SrcIP[:])
	copy(ip[16:20], key.DstIP[:])
	ck := HeaderChecksum(ip[:20])
	ip[10], ip[11] = byte(ck>>8), byte(ck)

	l4 := ip[20:]
	switch key.Proto {
	case ProtoTCP:
		l4[0], l4[1] = byte(key.SrcPort>>8), byte(key.SrcPort)
		l4[2], l4[3] = byte(key.DstPort>>8), byte(key.DstPort)
		l4[12] = 5 << 4 // data offset
		flags := opt.TCPFlags
		if flags == 0 {
			flags = TCPAck
		}
		l4[13] = flags
		l4[14], l4[15] = 0xFF, 0xFF // window
	case ProtoUDP:
		l4[0], l4[1] = byte(key.SrcPort>>8), byte(key.SrcPort)
		l4[2], l4[3] = byte(key.DstPort>>8), byte(key.DstPort)
		l := 8 + opt.PayloadLen
		l4[4], l4[5] = byte(l>>8), byte(l)
	}
	return dst
}
