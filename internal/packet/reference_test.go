package packet

import (
	"errors"
	"fmt"

	"cocosketch/internal/flowkey"
)

// The layer-by-layer Decoder below is the reference parser that
// FuzzDecoder and TestExtractMatchesDecoder compare ExtractFiveTuple
// against: it decodes every header into a struct and reports why a
// frame was rejected, where the shipped extractor only reads the key
// fields and reports ok == false.

// Decode errors.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrUnsupported = errors.New("packet: unsupported layer")
)

// Ethernet is an Ethernet II header (VLAN tag, if present, is consumed
// transparently and recorded in VLANID).
type Ethernet struct {
	DstMAC    [6]byte
	SrcMAC    [6]byte
	EtherType uint16
	VLANID    uint16 // 0 if untagged
}

// DecodeFromBytes parses the header and returns the payload.
func (e *Ethernet) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < 14 {
		return nil, fmt.Errorf("%w: ethernet header (%d bytes)", ErrTruncated, len(data))
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	e.EtherType = uint16(data[12])<<8 | uint16(data[13])
	e.VLANID = 0
	rest := data[14:]
	if e.EtherType == EtherTypeVLAN {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: vlan tag", ErrTruncated)
		}
		e.VLANID = (uint16(rest[0])<<8 | uint16(rest[1])) & 0x0FFF
		e.EtherType = uint16(rest[2])<<8 | uint16(rest[3])
		rest = rest[4:]
	}
	return rest, nil
}

// IPv4 is an IPv4 header.
type IPv4 struct {
	IHL      uint8
	TOS      uint8
	Length   uint16
	ID       uint16
	Flags    uint8
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	SrcIP    [4]byte
	DstIP    [4]byte
}

// DecodeFromBytes parses the header (including options) and returns the
// L4 payload.
func (ip *IPv4) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("%w: ipv4 header (%d bytes)", ErrTruncated, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return nil, fmt.Errorf("%w: ip version %d in ipv4 decoder", ErrUnsupported, v)
	}
	ip.IHL = data[0] & 0x0F
	hdrLen := int(ip.IHL) * 4
	if hdrLen < 20 {
		return nil, fmt.Errorf("packet: ipv4 IHL %d too small", ip.IHL)
	}
	if len(data) < hdrLen {
		return nil, fmt.Errorf("%w: ipv4 options", ErrTruncated)
	}
	ip.TOS = data[1]
	ip.Length = uint16(data[2])<<8 | uint16(data[3])
	ip.ID = uint16(data[4])<<8 | uint16(data[5])
	ip.Flags = data[6] >> 5
	ip.FragOff = (uint16(data[6])<<8 | uint16(data[7])) & 0x1FFF
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = uint16(data[10])<<8 | uint16(data[11])
	copy(ip.SrcIP[:], data[12:16])
	copy(ip.DstIP[:], data[16:20])
	return data[hdrLen:], nil
}

// IPv6 is the fixed IPv6 header (extension headers are not traversed;
// NextHeader is reported as the protocol).
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	Length       uint16
	NextHeader   uint8
	HopLimit     uint8
	SrcIP        [16]byte
	DstIP        [16]byte
}

// DecodeFromBytes parses the fixed header and returns the payload.
func (ip *IPv6) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < 40 {
		return nil, fmt.Errorf("%w: ipv6 header", ErrTruncated)
	}
	if v := data[0] >> 4; v != 6 {
		return nil, fmt.Errorf("%w: ip version %d in ipv6 decoder", ErrUnsupported, v)
	}
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.FlowLabel = (uint32(data[1]&0x0F) << 16) | uint32(data[2])<<8 | uint32(data[3])
	ip.Length = uint16(data[4])<<8 | uint16(data[5])
	ip.NextHeader = data[6]
	ip.HopLimit = data[7]
	copy(ip.SrcIP[:], data[8:24])
	copy(ip.DstIP[:], data[24:40])
	return data[40:], nil
}

// TCP is a TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
}

// DecodeFromBytes parses the header (skipping options) and returns the
// payload.
func (t *TCP) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("%w: tcp header", ErrTruncated)
	}
	t.SrcPort = uint16(data[0])<<8 | uint16(data[1])
	t.DstPort = uint16(data[2])<<8 | uint16(data[3])
	t.Seq = uint32(data[4])<<24 | uint32(data[5])<<16 | uint32(data[6])<<8 | uint32(data[7])
	t.Ack = uint32(data[8])<<24 | uint32(data[9])<<16 | uint32(data[10])<<8 | uint32(data[11])
	t.DataOffset = data[12] >> 4
	hdrLen := int(t.DataOffset) * 4
	if hdrLen < 20 {
		return nil, fmt.Errorf("packet: tcp data offset %d too small", t.DataOffset)
	}
	if len(data) < hdrLen {
		return nil, fmt.Errorf("%w: tcp options", ErrTruncated)
	}
	t.Flags = data[13] & 0x3F
	t.Window = uint16(data[14])<<8 | uint16(data[15])
	t.Checksum = uint16(data[16])<<8 | uint16(data[17])
	t.Urgent = uint16(data[18])<<8 | uint16(data[19])
	return data[hdrLen:], nil
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// DecodeFromBytes parses the header and returns the payload.
func (u *UDP) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: udp header", ErrTruncated)
	}
	u.SrcPort = uint16(data[0])<<8 | uint16(data[1])
	u.DstPort = uint16(data[2])<<8 | uint16(data[3])
	u.Length = uint16(data[4])<<8 | uint16(data[5])
	u.Checksum = uint16(data[6])<<8 | uint16(data[7])
	return data[8:], nil
}

// Decoder is a reusable zero-allocation 5-tuple extractor in the style
// of gopacket's DecodingLayerParser. Not safe for concurrent use; give
// each dataplane thread its own Decoder.
type Decoder struct {
	Eth Ethernet
	IP4 IPv4
	IP6 IPv6
	TCP TCP
	UDP UDP
}

// FiveTuple decodes an Ethernet frame down to L4 and extracts the
// 5-tuple key. IPv6 sources are folded into the IPv4 key space by
// hashing (documented substitution: the paper's key is the IPv4
// 5-tuple). Packets without TCP/UDP yield ports 0.
func (d *Decoder) FiveTuple(frame []byte) (flowkey.FiveTuple, error) {
	var key flowkey.FiveTuple
	payload, err := d.Eth.DecodeFromBytes(frame)
	if err != nil {
		return key, err
	}
	switch d.Eth.EtherType {
	case EtherTypeIPv4:
		payload, err = d.IP4.DecodeFromBytes(payload)
		if err != nil {
			return key, err
		}
		key.SrcIP = d.IP4.SrcIP
		key.DstIP = d.IP4.DstIP
		key.Proto = d.IP4.Protocol
	case EtherTypeIPv6:
		payload, err = d.IP6.DecodeFromBytes(payload)
		if err != nil {
			return key, err
		}
		key.SrcIP = foldIPv6(d.IP6.SrcIP)
		key.DstIP = foldIPv6(d.IP6.DstIP)
		key.Proto = d.IP6.NextHeader
	default:
		return key, fmt.Errorf("%w: ethertype %#04x", ErrUnsupported, d.Eth.EtherType)
	}
	switch key.Proto {
	case ProtoTCP:
		if _, err := d.TCP.DecodeFromBytes(payload); err != nil {
			return key, err
		}
		key.SrcPort, key.DstPort = d.TCP.SrcPort, d.TCP.DstPort
	case ProtoUDP:
		if _, err := d.UDP.DecodeFromBytes(payload); err != nil {
			return key, err
		}
		key.SrcPort, key.DstPort = d.UDP.SrcPort, d.UDP.DstPort
	}
	return key, nil
}
