// Package packet extracts the paper's 5-tuple full key from Ethernet
// frames and builds well-formed frames for the dataplane paths (pcap
// replay, the OVS pipeline, trace export). ExtractFiveTuple is the one
// parser: it reads the key straight out of the frame bytes in a single
// pass, with no layer structs and no allocation, so it runs directly
// on a record view into a pcap reader's buffer.
//
// Supported layers: Ethernet II (with single 802.1Q VLAN tag), IPv4
// (with options), IPv6 (fixed header), TCP, UDP. That is the coverage
// needed to extract the paper's 5-tuple full key from real frames.
package packet

// EtherTypes and protocol numbers the extractor and builder handle.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeIPv6 = 0x86DD
	EtherTypeVLAN = 0x8100

	ProtoTCP = 6
	ProtoUDP = 17
)

// TCP flag bits.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// HeaderChecksum computes the IPv4 header checksum over hdr (an encoded
// header with its checksum field zeroed).
func HeaderChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}

// foldIPv6 folds a 128-bit address into the 32-bit key space with
// FNV-1a, so distinct v6 addresses map to well-spread v4-shaped keys.
func foldIPv6(a [16]byte) [4]byte {
	h := uint32(2166136261)
	for _, b := range a {
		h ^= uint32(b)
		h *= 16777619
	}
	return [4]byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
}
