package packet

import "cocosketch/internal/flowkey"

// ExtractFiveTuple pulls the 5-tuple full key out of an Ethernet frame
// in one pass over the header bytes. It reports a frame it cannot key
// — non-IP traffic, truncated headers, an IHL or TCP data offset that
// points past the frame — as ok == false, so the reject path costs no
// allocation either. The frame is only read within len(frame): the
// extractor works directly on a record view into a pcap reader's
// buffer with no copying.
//
// It consumes one optional 802.1Q tag, folds IPv6 addresses into the
// IPv4 key space (the paper's key is the IPv4 5-tuple), and leaves
// ports zero for non-TCP/UDP protocols. A layer-by-layer reference
// decoder in the package tests pins it bit for bit
// (TestExtractMatchesDecoder, FuzzDecoder).
func ExtractFiveTuple(frame []byte) (key flowkey.FiveTuple, ok bool) {
	if len(frame) < 14 {
		return key, false
	}
	etherType := uint16(frame[12])<<8 | uint16(frame[13])
	rest := frame[14:]
	if etherType == EtherTypeVLAN {
		if len(rest) < 4 {
			return key, false
		}
		etherType = uint16(rest[2])<<8 | uint16(rest[3])
		rest = rest[4:]
	}

	switch etherType {
	case EtherTypeIPv4:
		if len(rest) < 20 || rest[0]>>4 != 4 {
			return key, false
		}
		hdrLen := int(rest[0]&0x0F) * 4
		if hdrLen < 20 || len(rest) < hdrLen {
			return key, false
		}
		key.SrcIP = [4]byte(rest[12:16])
		key.DstIP = [4]byte(rest[16:20])
		key.Proto = rest[9]
		rest = rest[hdrLen:]
	case EtherTypeIPv6:
		if len(rest) < 40 || rest[0]>>4 != 6 {
			return key, false
		}
		key.SrcIP = foldIPv6([16]byte(rest[8:24]))
		key.DstIP = foldIPv6([16]byte(rest[24:40]))
		key.Proto = rest[6]
		rest = rest[40:]
	default:
		return key, false
	}

	switch key.Proto {
	case ProtoTCP:
		if len(rest) < 20 {
			return key, false
		}
		hdrLen := int(rest[12]>>4) * 4
		if hdrLen < 20 || len(rest) < hdrLen {
			return key, false
		}
		key.SrcPort = uint16(rest[0])<<8 | uint16(rest[1])
		key.DstPort = uint16(rest[2])<<8 | uint16(rest[3])
	case ProtoUDP:
		if len(rest) < 8 {
			return key, false
		}
		key.SrcPort = uint16(rest[0])<<8 | uint16(rest[1])
		key.DstPort = uint16(rest[2])<<8 | uint16(rest[3])
	}
	return key, true
}
